"""There are no compiled code paths; the benchmark still records this flag."""

NUMBA_ENABLED = False

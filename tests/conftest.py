import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from support import corpus_graphs, embedded_corpus  # noqa: E402


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()

@pytest.fixture(scope="session")
def embedded():
    return embedded_corpus()


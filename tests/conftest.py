import multiprocessing
import os
from pathlib import Path

import pytest

# Tests and the CLI subprocesses they spawn share the repository's golden
# directory, so frozen constants certify once and stay pinned.
os.environ.setdefault("ZETASUM_GOLDEN_DIR",
                      str(Path(__file__).resolve().parent.parent / "golden"))


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves a live multiprocessing child behind."""
    yield
    left = multiprocessing.active_children()
    for child in left:  # so that the next test starts clean
        child.terminate()
        child.join(5)
    assert not left, f"worker processes left running: {left}"

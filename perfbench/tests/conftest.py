import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session", autouse=True)
def session_tracer():
    """One tracer per process, installed before any test builds a protocol."""
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


@pytest.fixture
def tracer(session_tracer):
    session_tracer.reset()
    return session_tracer

import pytest

from mscontrast import autodiff as ad


@pytest.fixture(autouse=True)
def _fresh_tape():
    # a forward pass that a test never sweeps backward leaves its tape
    # current, and the next graph built in this process would be recorded
    # onto it; every test starts and ends with no tape open
    ad._CURRENT_TAPE = None
    yield
    ad._CURRENT_TAPE = None

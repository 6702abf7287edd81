import pytest

from fruitnet import _parallel


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves numpy's BLAS at another thread count than it
    found: train and evaluate pin it to one thread and must put it back."""
    blas = _parallel._blas_threads()
    before = blas[0]() if blas else None
    yield
    after = blas[0]() if blas else None
    assert after == before, f"BLAS threads were {before} before the test and {after} after it"

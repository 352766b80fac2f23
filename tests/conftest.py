import pytest

import modet.prox


@pytest.fixture
def numpy_backend(monkeypatch):
    """Run the prox sweeps on the numpy fallback, as without a compiler."""
    monkeypatch.setattr(modet.prox, "_sweep_c", None)
    monkeypatch.setattr(modet.prox, "BACKEND", "numpy")

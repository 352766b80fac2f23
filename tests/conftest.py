import pytest

import modet.prox


@pytest.fixture
def numpy_backend(monkeypatch):
    """Run the prox sweeps on the numpy fallback, as without a compiler."""
    monkeypatch.setattr(modet.prox, "_sweep_c", None)
    monkeypatch.setattr(modet.prox, "BACKEND", "numpy")


def add_covering_windows(rows, p, k):
    """Append a window of k consecutive pixels at each pixel of [0, p) that
    the k-wide ``rows`` leave uncovered; returns ``rows``."""
    hit = set().union(*map(set, rows))
    for i in range(p):
        if i not in hit:
            start = min(i, p - k)
            rows.append(list(range(start, start + k)))
            hit.update(rows[-1])
    return rows

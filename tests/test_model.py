import math

import numpy as np
import pytest

from modet.model import (
    Frame,
    HyperParams,
    default_hyperparams,
    init_subspace,
)


def test_default_hyperparams_at_400x400():
    hp = default_hyperparams(160000)
    assert hp.lambda1 == 0.0025
    assert hp.lambda2 == 0.025
    assert hp.rank == 25
    assert hp.tau == 1e-5


def test_default_hyperparams_p1():
    hp = default_hyperparams(1)
    assert hp.lambda1 == 1.0
    assert hp.lambda2 == 10.0


def test_default_hyperparams_600x400():
    # direct evaluation of the two formulas
    hp = default_hyperparams(240000)
    assert hp.lambda1 == 1.0 / math.sqrt(240000)
    assert abs(hp.lambda1 - 2.0412414523193148e-3) < 1e-12
    assert abs(hp.lambda2 - 2.0412414523193148e-2) < 1e-11


def test_default_hyperparams_rejects_zero():
    with pytest.raises(ValueError):
        default_hyperparams(0)


def test_scale_consistency_across_p():
    # lambda2 is constructed as exactly 10 * lambda1 for every p
    for p in list(range(1, 2000)) + [4096, 160000, 240000, 10**7]:
        hp = default_hyperparams(p)
        assert hp.lambda2 == 10.0 * hp.lambda1


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lambda1=0.0, lambda2=1.0)
    with pytest.raises(ValueError):
        HyperParams(lambda1=1.0, lambda2=-1.0)
    with pytest.raises(ValueError):
        HyperParams(lambda1=1.0, lambda2=1.0, rank=0)
    with pytest.raises(ValueError):
        HyperParams(lambda1=1.0, lambda2=1.0, tau=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            HyperParams(lambda1=bad, lambda2=1.0, rank=2)
        with pytest.raises(ValueError):
            HyperParams(lambda1=1.0, lambda2=bad, rank=2)
        with pytest.raises(ValueError):
            HyperParams(lambda1=1.0, lambda2=1.0, tau=bad)


def test_frame_shape_validation():
    Frame(pixels=np.zeros(12), height=3, width=4)
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros(11), height=3, width=4)
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros(0), height=0, width=4)


def test_init_subspace_deterministic_by_seed():
    hp = HyperParams(lambda1=0.1, lambda2=1.0, rank=2)
    a = init_subspace(9, hp, seed=42)
    b = init_subspace(9, hp, seed=42)
    assert np.array_equal(a.basis, b.basis)
    c = init_subspace(9, hp, seed=43)
    assert not np.array_equal(a.basis, c.basis)


def test_init_subspace_zero_accumulators():
    hp = HyperParams(lambda1=0.1, lambda2=1.0, rank=2)
    m = init_subspace(9, hp, seed=5)
    assert np.array_equal(m.accA, np.zeros((2, 2)))
    assert np.array_equal(m.accB, np.zeros((9, 2)))
    assert m.frames_seen == 0


def test_init_subspace_column_norms_balanced():
    hp = HyperParams(lambda1=0.1, lambda2=1.0, rank=25)
    m = init_subspace(100, hp, seed=7)
    norms = np.linalg.norm(m.basis, axis=0)
    assert norms.max() / norms.min() < 10.0


def test_init_subspace_rejects_small_p():
    hp = HyperParams(lambda1=0.1, lambda2=1.0, rank=25)
    with pytest.raises(ValueError):
        init_subspace(10, hp, seed=0)


def test_init_subspace_full_numerical_rank():
    hp = HyperParams(lambda1=0.1, lambda2=1.0, rank=5)
    for seed in range(20):
        m = init_subspace(30, hp, seed=seed)
        sv = np.linalg.svd(m.basis, compute_uv=False)
        assert np.count_nonzero(sv > 1e-10 * sv[0]) == 5

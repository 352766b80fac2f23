import numpy as np
import pytest

import modet.separation
from conftest import joint_objective
from modet.groups import build_grid_groups
from modet.io import SynthSpec, iter_sequence, synth_sequence, write_sequence_dir
from modet.model import Frame, HyperParams
from modet.pipeline import run_sequence
from modet.separation import ridge_solve, separate


def make_params(p, **kw):
    defaults = dict(lambda1=1.0 / np.sqrt(p), lambda2=10.0 / np.sqrt(p), rank=2)
    defaults.update(kw)
    return HyperParams(**defaults)


def ridge_objective(d, s, L, lam1, r):
    resid = d - L @ r - s
    return 0.5 * resid @ resid + 0.5 * lam1 * (r @ r)


class TestRidgeSolve:
    def test_zero_basis(self):
        out = ridge_solve(np.ones(6), np.zeros(6), np.zeros((6, 2)), 0.5)
        assert np.array_equal(out, np.zeros(2))

    def test_zero_rhs(self):
        rng = np.random.default_rng(0)
        L = rng.normal(size=(6, 2))
        d = rng.normal(size=6)
        out = ridge_solve(d, d, L, 0.5)
        assert np.abs(out).max() < 1e-14

    def test_normal_equations_and_local_optimality(self):
        rng = np.random.default_rng(1)
        L = rng.normal(size=(6, 2))
        d = rng.normal(size=6)
        s = rng.normal(size=6)
        lam1 = 0.5
        r = ridge_solve(d, s, L, lam1)
        resid = (L.T @ L + lam1 * np.eye(2)) @ r - L.T @ (d - s)
        assert np.abs(resid).max() <= 1e-10
        base = ridge_objective(d, s, L, lam1, r)
        for i in range(2):
            for sign in (1.0, -1.0):
                bumped = r.copy()
                bumped[i] += sign * 1e-3
                assert base <= ridge_objective(d, s, L, lam1, bumped)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ridge_solve(np.array([np.inf, 0.0]), np.zeros(2), np.ones((2, 1)), 0.1)


class TestSeparate:
    def test_zero_frame_converges_immediately(self):
        g = build_grid_groups(4, 4)
        params = make_params(16)
        rng = np.random.default_rng(2)
        L = rng.normal(size=(16, 2))
        res = separate(Frame(np.zeros(16), 4, 4), L, g, params)
        assert res.iters == 1
        assert not res.coeffs.any()
        assert not res.foreground.any()
        assert res.final_delta == 0.0

    def test_background_recomputed_from_coeffs(self):
        g = build_grid_groups(4, 4)
        params = make_params(16)
        rng = np.random.default_rng(3)
        L = rng.normal(size=(16, 2))
        d = Frame(rng.uniform(0, 1, 16), 4, 4)
        res = separate(d, L, g, params)
        assert np.array_equal(res.background, L @ res.coeffs)

    def test_in_span_huge_lambda2_gives_pure_ridge(self):
        rng = np.random.default_rng(4)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2)) / 4.0
        c = rng.normal(size=2)
        d = Frame(L @ c, 4, 4)
        params = make_params(16, lambda2=1e6)
        res = separate(d, L, g, params)
        assert np.abs(res.foreground).max() <= 1e-12
        r_ridge = ridge_solve(d.pixels, np.zeros(16), L, params.lambda1)
        assert np.allclose(res.coeffs, r_ridge, atol=1e-10)

    def test_planted_foreground_recovery_and_oracle_objective(self,
                                                              monkeypatch):
        rng = np.random.default_rng(5)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2)) / 4.0
        r0 = rng.normal(size=2)
        s0 = np.zeros(16)
        block = g.index_matrix[0]  # one 3x3 window
        s0[block] = rng.uniform(0.5, 1.0, block.size)
        d = Frame(L @ r0 + s0 + 0.01 * rng.normal(size=16), 4, 4)
        params = make_params(16, lambda2=0.05)
        res = separate(d, L, g, params)
        top = np.argsort(-np.abs(res.foreground))[: block.size]
        assert set(top.tolist()) == set(block.tolist())
        # long-run alternation oracle: 10x budget, much tighter tolerances
        tight = make_params(16, lambda2=0.05, tau=1e-12)
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", 1000)
        monkeypatch.setattr(modet.separation, "PROX_TOL", 1e-13)
        monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 2000)
        ref = separate(d, L, g, tight)
        got = joint_objective(d.pixels, L, res.coeffs, res.foreground, g, params)
        best = joint_objective(d.pixels, L, ref.coeffs, ref.foreground, g, params)
        assert got <= best + 1e-6

    def test_objective_monotone_descent(self):
        rng = np.random.default_rng(6)
        g = build_grid_groups(5, 5)
        L = rng.normal(size=(25, 3)) / 5.0
        d = Frame(rng.uniform(0, 1, 25), 5, 5)
        params = make_params(25, rank=3, lambda2=0.08)
        res = separate(d, L, g, params)
        trace = np.asarray(res.objective_trace)
        assert res.iters == trace.size
        assert (np.diff(trace) <= 1e-10).all()

    def test_trace_ends_at_joint_objective(self):
        # the trace and joint_objective share one cost function: equal bits
        for seed, side, rank, lambda2 in ((3, 4, 2, None), (5, 4, 2, 0.05),
                                          (6, 5, 3, 0.08), (9, 5, 3, 0.01)):
            rng = np.random.default_rng(seed)
            g = build_grid_groups(side, side)
            p = side * side
            L = rng.normal(size=(p, rank)) / side
            d = Frame(rng.uniform(0, 1, p), side, side)
            kw = {} if lambda2 is None else {"lambda2": lambda2}
            params = make_params(p, rank=rank, **kw)
            res = separate(d, L, g, params)
            assert res.objective_trace[-1] == joint_objective(
                d.pixels, L, res.coeffs, res.foreground, g, params)

    def test_huge_lambda2_kills_foreground_on_any_input(self):
        rng = np.random.default_rng(10)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2)) / 4.0
        d = Frame(rng.uniform(0, 1, 16), 4, 4)
        params = make_params(16, lambda2=1e6)
        res = separate(d, L, g, params)
        assert np.abs(res.foreground).max() <= 1e-12

    def test_tiny_lambda2_limit(self, monkeypatch):
        rng = np.random.default_rng(8)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2)) / 4.0
        d = Frame(rng.uniform(0, 1, 16), 4, 4)
        eps = 1e-8
        params = make_params(16, lambda2=eps, tau=1e-12)
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", 500)
        res = separate(d, L, g, params)
        assert np.abs(d.pixels - res.background - res.foreground).max() <= 10 * eps

    def test_budget_exhaustion_is_flagged_not_raised(self, monkeypatch):
        # a 3x3 foreground block on a rank-3 background: the separation
        # needs about 50 iterations to reach tau, so 2 leave it well short
        rng = np.random.default_rng(9)
        g = build_grid_groups(5, 5)
        L = rng.normal(size=(25, 3))
        s0 = np.zeros((5, 5))
        s0[1:4, 1:4] = 3.0
        d = Frame(L @ rng.normal(size=3) + s0.ravel(), 5, 5)
        params = make_params(25, rank=3, tau=1e-14)
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", 2)
        res = separate(d, L, g, params)
        assert res.iters == 2
        assert res.final_delta > params.tau

    def test_capped_prox_calls_counted(self, monkeypatch):
        # one sweep per prox call: every call on a frame with foreground
        # stops at the cap with its dual still moving
        rng = np.random.default_rng(0)
        g = build_grid_groups(8, 8)
        L = rng.normal(size=(64, 2)) / 8.0
        s0 = np.zeros((8, 8))
        s0[1:4, 1:4] = rng.uniform(0.5, 1.0, (3, 3))
        d = Frame(L @ rng.normal(size=2) + s0.ravel(), 8, 8)
        monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 1)
        res = separate(d, L, g, make_params(64))
        # one call of one sweep per iteration
        assert res.prox_sweeps == res.prox_capped == res.iters

    def test_easy_frame_has_no_capped_prox_call(self):
        rng = np.random.default_rng(3)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2))
        res = separate(Frame(rng.uniform(0, 1, 16), 4, 4), L, g, make_params(16))
        assert res.prox_sweeps >= res.iters
        assert res.prox_capped == 0

    def test_descent_on_benchmark_stream_noise_seed_15(self, tmp_path):
        # Scene seed 7 with noise seed 15, written and read back as 8-bit
        # PGM like the streaming benchmark's input: at frame 11 a prox call
        # that stopped at its tolerance used to raise the cost by 7.6e-9.
        spec = SynthSpec(height=64, width=64, n_frames=12, n_blobs=3,
                         noise_sigma=0.0)
        frames, _ = synth_sequence(spec, 7)
        rng = np.random.default_rng(15)
        write_sequence_dir(tmp_path, (
            Frame(np.clip(f.pixels + rng.normal(0.0, 0.01, f.pixels.size),
                          0.0, 1.0), f.height, f.width, f.index)
            for f in frames))
        rises = []

        def record(frame, sep):
            rises.extend(np.diff(sep.objective_trace))
            return {}

        run_sequence(iter_sequence(tmp_path), seed=0, evaluator=record)
        assert max(rises) <= 1e-10

    def test_dimension_mismatches(self):
        g = build_grid_groups(4, 4)
        params = make_params(16)
        L = np.zeros((16, 2))
        with pytest.raises(ValueError):
            separate(Frame(np.zeros(9), 3, 3), L, g, params)
        with pytest.raises(ValueError):
            separate(Frame(np.zeros(16), 4, 4), np.zeros((16, 3)), g, params)


@pytest.mark.usefixtures("numpy_backend")
class TestSeparateNumpy(TestSeparate):
    """The same cases on the numpy fallback of the prox sweeps."""

import numpy as np
import pytest

import modet.prox
import modet.separation
from conftest import joint_objective
from modet.groups import build_grid_groups
from modet.io import SynthSpec, iter_sequence, synth_sequence, write_sequence_dir
from modet.model import Frame, HyperParams
from modet.pipeline import run_sequence
from modet.prox import structured_prox_dual
from modet.separation import ridge_solve, separate


def make_params(p, **kw):
    defaults = dict(lambda1=1.0 / np.sqrt(p), lambda2=10.0 / np.sqrt(p), rank=2)
    defaults.update(kw)
    return HyperParams(**defaults)


def ridge_objective(d, s, L, lam1, r):
    resid = d - L @ r - s
    return 0.5 * resid @ resid + 0.5 * lam1 * (r @ r)


def benchmark_stream_rises(path, noise_seed, n_frames):
    """Every separation step's cost change over a run of the streaming
    benchmark's synth64 input: scene seed 7 with the given noise seed,
    written to ``path`` and read back as 8-bit PGM."""
    spec = SynthSpec(height=64, width=64, n_frames=n_frames, n_blobs=3,
                     noise_sigma=0.0)
    frames, _ = synth_sequence(spec, 7)
    rng = np.random.default_rng(noise_seed)
    write_sequence_dir(path, (
        Frame(np.clip(f.pixels + rng.normal(0.0, 0.01, f.pixels.size),
                      0.0, 1.0), f.height, f.width, f.index)
        for f in frames))
    rises = []

    def record(frame, sep):
        rises.extend(np.diff(sep.objective_trace))
        return {}

    run_sequence(iter_sequence(path), seed=0, evaluator=record)
    return rises


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


def planted_block_frame():
    """A 3x3 foreground block on a rank-3 background, with tau = 1e-14."""
    rng = np.random.default_rng(9)
    g = build_grid_groups(5, 5)
    L = rng.normal(size=(25, 3))
    s0 = np.zeros((5, 5))
    s0[1:4, 1:4] = 3.0
    d = Frame(L @ rng.normal(size=3) + s0.ravel(), 5, 5)
    return d, L, g, make_params(25, rank=3, tau=1e-14)


class TestSeparate:
    def test_zero_frame_converges_immediately(self):
        g = build_grid_groups(4, 4)
        params = make_params(16)
        rng = np.random.default_rng(2)
        L = rng.normal(size=(16, 2))
        # the first ridge step never ends a frame; the second repeats r = 0
        res = separate(Frame(np.zeros(16), 4, 4), L, g, params)
        assert res.iters == 2
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
        # the separation needs about 50 iterations to reach tau, so 2 leave
        # it well short
        d, L, g, params = planted_block_frame()
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", 2)
        res = separate(d, L, g, params)
        assert res.iters == 2
        assert res.final_delta > params.tau

    @pytest.mark.parametrize("k", [2, 3])
    def test_capped_final_delta_is_the_last_ridge_move(self, monkeypatch, k):
        # the planted block, cut at k and at k - 1 iterations:
        # final_delta is the k-th ridge step's move of r, not a change of s
        d, L, g, params = planted_block_frame()
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", k - 1)
        before = separate(d, L, g, params)
        monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", k)
        res = separate(d, L, g, params)
        assert res.iters == k
        assert res.final_delta == float(
            np.linalg.norm(res.coeffs - before.coeffs)) / 25

    def test_capped_prox_calls_counted(self, monkeypatch):
        # one sweep per prox call: the first call on a frame with foreground
        # stops at the cap with its dual still moving, above its bound, and
        # is rejected; the next ridge step repeats r and ends the frame
        rng = np.random.default_rng(0)
        g = build_grid_groups(8, 8)
        L = rng.normal(size=(64, 2)) / 8.0
        s0 = np.zeros((8, 8))
        s0[1:4, 1:4] = rng.uniform(0.5, 1.0, (3, 3))
        d = Frame(L @ rng.normal(size=2) + s0.ravel(), 8, 8)
        monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 1)
        res = separate(d, L, g, make_params(64))
        assert res.prox_sweeps == res.prox_capped == res.prox_rejected == 1
        assert res.iters == 2

    def test_easy_frame_has_no_capped_prox_call(self):
        rng = np.random.default_rng(3)
        g = build_grid_groups(4, 4)
        L = rng.normal(size=(16, 2))
        res = separate(Frame(rng.uniform(0, 1, 16), 4, 4), L, g, make_params(16))
        assert res.prox_sweeps >= res.iters
        assert res.prox_capped == 0

    def test_descent_on_benchmark_stream_noise_seed_15(self, tmp_path):
        # at frame 11 a prox call that stopped at its tolerance used to
        # raise the cost by 7.6e-9
        assert max(benchmark_stream_rises(tmp_path, 15, 12)) <= 1e-10

    @pytest.mark.parametrize("noise_seed, n_frames",
                             [(17, 21), (8, 26), (101, 21)])
    def test_descent_when_a_prox_call_stops_above_its_bound(
            self, tmp_path, noise_seed, n_frames):
        # The same stream at other noise seeds: a prox call that ran to its
        # sweep cap used to return a foreground above its bound, and the
        # frame's cost rose by 0.514 at frame 0 (seed 17), by 0.0467 at
        # frame 25 (seed 8) and by 0.000967 at frame 20 (seed 101). With
        # the last call's stop on the separation's own test, seed 17 still
        # has a call that runs to its cap above its bound, at frame 20
        # (+0.00143). Such a step is not taken now.
        assert max(benchmark_stream_rises(tmp_path, noise_seed,
                                          n_frames)) <= 1e-10

    def test_rejected_prox_steps_are_counted_and_keep_descent(self,
                                                            monkeypatch):
        # two sweeps per prox call leave the first call's foreground above
        # its bound: the step is not taken, s stays 0, the next ridge step
        # repeats r and ends the frame, and the trace is flat
        rng = np.random.default_rng(0)
        g = build_grid_groups(8, 8)
        L = rng.normal(size=(64, 2)) / 8.0
        s0 = np.zeros((8, 8))
        s0[1:4, 1:4] = rng.uniform(0.5, 1.0, (3, 3))
        d = Frame(L @ rng.normal(size=2) + s0.ravel(), 8, 8)
        params = make_params(64)
        monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 2)
        res = separate(d, L, g, params)
        assert res.prox_rejected == res.prox_capped == 1
        assert res.iters == 2
        assert not res.foreground.any()
        assert (np.diff(res.objective_trace) <= 1e-10).all()
        assert res.objective_trace[-1] == joint_objective(
            d.pixels, L, res.coeffs, res.foreground, g, params)
        monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 200)
        assert separate(d, L, g, params).prox_rejected == 0

    def test_frame_ends_without_a_prox_call_after_a_small_ridge_step(
            self, monkeypatch):
        # once a ridge step moves r by at most tau * p, (r_new, s) passes
        # the stop test: the frame ends with no prox call and keeps the
        # foreground of its last call
        calls = []

        def counted(*args, **kw):
            out = structured_prox_dual(*args, **kw)
            calls.append(out[0])
            return out

        monkeypatch.setattr(modet.separation, "structured_prox_dual", counted)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            g = build_grid_groups(8, 8)
            L = rng.normal(size=(64, 2)) / 8.0
            s0 = np.zeros((8, 8))
            s0[1:4, 1:4] = rng.uniform(0.5, 1.0, (3, 3))
            d = Frame(L @ rng.normal(size=2) + s0.ravel(), 8, 8)
            params = make_params(64, lambda2=0.3)
            calls.clear()
            res = separate(d, L, g, params)
            assert res.iters > 1 and res.final_delta <= params.tau
            assert res.prox_rejected == 0 and res.foreground.any()
            assert len(calls) == res.iters - 1
            assert res.foreground.tobytes() == calls[-1].tobytes()

    def test_inexact_steps_end_close_to_tighter_ones(self, monkeypatch):
        # a 64x64 stream's basis frozen after 40 frames: on the next 10
        # frames the gap stop at ETA ends within 2e-3 of the frame cost a
        # stop at ETA = 1e-3 reaches
        frames = list(synth_sequence(SynthSpec(n_frames=50), 7)[0])
        summary = run_sequence(iter(frames[:40]), seed=0)
        L, params = summary.model.basis, summary.params
        g = build_grid_groups(64, 64)

        def costs():
            return np.array([separate(f, L, g, params).objective_trace[-1]
                             for f in frames[40:]])

        got = costs()
        monkeypatch.setattr(modet.prox, "ETA", 1e-3)
        tight = costs()
        assert (np.abs(got - tight) <= 2e-3 * tight).all()

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

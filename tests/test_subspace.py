import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    basis_sweep_loop,
    closed_form_basis,
    empirical_cost,
    surrogate_cost,
)
from modet.groups import build_grid_groups, omega_norm
from modet.model import Frame, HyperParams, SeparationResult, SubspaceModel
from modet.pipeline import SurrogateTracker
from modet.separation import separate
from modet.subspace import (
    BLOCK_ROWS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    basis_gram,
    load_checkpoint,
    save_checkpoint,
    update_accumulators,
    update_basis,
)


def fresh_model(p, r, rng=None, basis=None):
    if basis is None:
        basis = rng.normal(size=(p, r)) / np.sqrt(p)
    return SubspaceModel(
        basis=basis, accA=np.zeros((r, r)), accB=np.zeros((p, r)), frames_seen=0
    )


def sweep_deltas(m, lam1, passes):
    """Runs ``passes`` sweeps of ``update_basis`` on ``m``; returns each
    column step's change of the quadratic, -(accA[i,i] + lam1) *
    ||l'_i - l_i||^2, in sweep order."""
    deltas = []
    for _ in range(passes):
        old = m.basis.copy()
        update_basis(m, lam1)
        step = m.basis - old
        deltas.extend(-(np.diag(m.accA) + lam1) * (step * step).sum(axis=0))
    return np.array(deltas)


def fake_result(coeffs, foreground, basis):
    return SeparationResult(
        coeffs=np.asarray(coeffs, dtype=float),
        foreground=np.asarray(foreground, dtype=float),
        background=basis @ np.asarray(coeffs, dtype=float),
        iters=1,
        final_delta=0.0,
    )


class TestAccumulators:
    def test_zero_coefficients_leave_matrices(self):
        rng = np.random.default_rng(0)
        m = fresh_model(6, 2, rng)
        d = Frame(rng.uniform(0, 1, 6), 2, 3)
        update_accumulators(m, d, fake_result(np.zeros(2), rng.normal(size=6), m.basis))
        assert not m.accA.any()
        assert not m.accB.any()
        assert m.frames_seen == 1

    def test_unit_coefficient(self):
        rng = np.random.default_rng(1)
        m = fresh_model(6, 2, rng)
        d = Frame(rng.uniform(0, 1, 6), 2, 3)
        s = rng.normal(size=6)
        update_accumulators(m, d, fake_result([1.0, 0.0], s, m.basis))
        assert np.allclose(m.accA, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(m.accB[:, 0], d.pixels - s)
        assert not m.accB[:, 1].any()

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(2)
        m = fresh_model(5, 3, rng)
        rs, ss, ds = [], [], []
        for _ in range(5):
            d = Frame(rng.uniform(0, 1, 5), 1, 5)
            r = rng.normal(size=3)
            s = rng.normal(size=5)
            update_accumulators(m, d, fake_result(r, s, m.basis))
            rs.append(r); ss.append(s); ds.append(d.pixels)
        A = sum(np.outer(r, r) for r in rs)
        B = sum(np.outer(d - s, r) for d, s, r in zip(ds, ss, rs))
        assert np.abs(m.accA - A).max() < 1e-12
        assert np.abs(m.accB - B).max() < 1e-12
        assert m.frames_seen == 5

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        m = fresh_model(6, 2, rng)
        d = Frame(rng.uniform(0, 1, 6), 2, 3)
        with pytest.raises(ValueError):
            update_accumulators(m, d, fake_result(np.zeros(3), np.zeros(6), np.zeros((6, 3))))


class TestBasisUpdate:
    def test_empty_accumulators_zero_the_basis(self):
        rng = np.random.default_rng(4)
        m = fresh_model(6, 2, rng)
        update_basis(m, lambda1=0.7)
        assert np.abs(m.basis).max() < 1e-16  # zero up to one rounding of x*l/l

    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(5)
        m = fresh_model(8, 3, rng)
        Y = rng.normal(size=(3, 12))
        m.accA = Y @ Y.T
        m.accB = rng.normal(size=(8, 3))
        m.frames_seen = 12
        ref = closed_form_basis(m, lambda1=0.5)
        for _ in range(50):
            update_basis(m, lambda1=0.5)
        assert np.abs(m.basis - ref).max() < 1e-8

    def test_per_column_descent_explicit_objective(self):
        rng = np.random.default_rng(6)
        m = fresh_model(7, 3, rng)
        Y = rng.normal(size=(3, 9))
        m.accA = Y @ Y.T
        m.accB = rng.normal(size=(7, 3))
        m.frames_seen = 9
        lam1 = 0.3
        params = HyperParams(lambda1=lam1, lambda2=1.0, rank=3)
        At = m.accA + lam1 * np.eye(3)

        def quadratic(L):
            # tr(L^T L At) - 2 tr(L^T accB): the surrogate at 9 frames with
            # no frame folded into the tracker's constant, times 2*9
            return 18.0 * SurrogateTracker().value(
                SubspaceModel(L, m.accA, m.accB, 9), params)

        # replay the column updates one at a time, evaluating the quadratic
        L = m.basis.copy()
        reported = sweep_deltas(m, lam1, passes=2)
        k = 0
        for _ in range(2):
            for i in range(3):
                before = quadratic(L)
                step = (m.accB[:, i] - L @ At[:, i]) / At[i, i]
                L[:, i] += step
                after = quadratic(L)
                assert after <= before + 1e-10
                assert abs((after - before) - reported[k]) < 1e-8
                k += 1
        assert np.allclose(L, m.basis)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 10),
           st.integers(1, 3), st.floats(-4.0, 1.0), st.data())
    def test_closed_form_sweep_matches_the_column_loop(self, p, r, frames,
                                                       passes, log_lam, data):
        def draw(shape, scale):
            return scale * data.draw(arrays(np.float64, shape,
                                            elements=st.floats(-1.0, 1.0)))

        lam1 = 10.0 ** log_lam
        Y = draw((r, frames), 10.0 ** data.draw(st.floats(-1.0, 2.0)))
        m = SubspaceModel(basis=draw((p, r), 1.0), accA=Y @ Y.T,
                          accB=draw((p, r), 10.0 ** data.draw(
                              st.floats(-2.0, 2.0))),
                          frames_seen=frames)
        old = m.basis.copy()
        ref, ref_deltas = basis_sweep_loop(m, lam1, passes)
        deltas = sweep_deltas(m, lam1, passes)
        # the loop adds each step to its column, so its rounding is relative
        # to the larger of the old and the new basis (and absolute below the
        # smallest normal float)
        scale = max(np.abs(old).max(), np.abs(ref).max())
        tiny = np.finfo(np.float64).tiny
        assert np.abs(m.basis - ref).max() <= 1e-12 * scale + tiny
        at_ii = np.tile(np.diag(m.accA) + lam1, passes)
        assert deltas.shape == ref_deltas.shape == (passes * r,)
        assert np.all(np.abs(deltas - ref_deltas)
                      <= 1e-12 * (np.abs(ref_deltas) + at_ii * p * scale ** 2)
                      + tiny)

    def test_carries_the_gram_matrix_of_its_basis_bit_for_bit(self):
        # one block, two blocks, and a partial last block
        rng = np.random.default_rng(24)
        for p in (7, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 5):
            m = fresh_model(p, 3, rng)
            Y = rng.normal(size=(3, 9))
            m.accA = Y @ Y.T
            m.accB = rng.normal(size=(p, 3))
            for _ in range(2):
                update_basis(m, lambda1=0.5)
                assert m.gram.tobytes() == basis_gram(m.basis).tobytes()
            assert np.abs(m.gram - m.basis.T @ m.basis).max() <= 1e-12 * p

    def test_foreground_absorbing_frame_shrinks_basis(self):
        rng = np.random.default_rng(7)
        m = fresh_model(6, 2, rng)
        d = Frame(rng.uniform(0, 1, 6), 2, 3)
        # foreground equals the frame, so accB stays zero
        update_accumulators(m, d, fake_result(rng.normal(size=2), d.pixels, m.basis))
        norm_before = np.linalg.norm(m.basis)
        update_basis(m, lambda1=0.5)
        assert np.linalg.norm(m.basis) < norm_before


class TestClosedForm:
    def test_zero_accumulators(self):
        rng = np.random.default_rng(8)
        m = fresh_model(6, 2, rng)
        assert not closed_form_basis(m, 0.5).any()

    def test_scalar_algebra_case(self):
        rng = np.random.default_rng(9)
        L0 = rng.normal(size=(6, 2))
        m = fresh_model(6, 2, basis=np.zeros((6, 2)))
        m.accA = np.eye(2)
        m.accB = 2.0 * L0
        assert np.allclose(closed_form_basis(m, 1.0), L0, atol=1e-12)

    def test_gradient_vanishes(self):
        rng = np.random.default_rng(10)
        m = fresh_model(9, 3, rng)
        Y = rng.normal(size=(3, 7))
        m.accA = Y @ Y.T
        m.accB = rng.normal(size=(9, 3))
        L = closed_form_basis(m, 0.4)
        grad = L @ (m.accA + 0.4 * np.eye(3)) - m.accB
        assert np.abs(grad).max() <= 1e-9


def run_history(p, H, W, r, n, seed):
    """Drive a short online run, returning model, history, groups, params."""
    rng = np.random.default_rng(seed)
    params = HyperParams(
        lambda1=1.0 / np.sqrt(p), lambda2=10.0 / np.sqrt(p), rank=r
    )
    g = build_grid_groups(H, W)
    model = fresh_model(p, r, rng)
    history = []
    for i in range(n):
        d = Frame(rng.uniform(0, 1, p), H, W, index=i)
        res = separate(d, model.basis, g, params)
        update_accumulators(model, d, res)
        update_basis(model, params.lambda1)
        history.append((d, res))
    return model, history, g, params


class TestCosts:
    def test_surrogate_zero_everything(self):
        m = fresh_model(9, 2, basis=np.zeros((9, 2)))
        m.frames_seen = 1
        g = build_grid_groups(3, 3)
        params = HyperParams(lambda1=0.1, lambda2=1.0, rank=2)
        hist = [(Frame(np.zeros(9), 3, 3), fake_result(np.zeros(2), np.zeros(9), m.basis))]
        assert surrogate_cost(m, hist, g, params) == 0.0

    def test_surrogate_single_frame_term_by_term(self):
        rng = np.random.default_rng(11)
        g = build_grid_groups(3, 3)
        params = HyperParams(lambda1=0.2, lambda2=0.5, rank=2)
        m = fresh_model(9, 2, rng)
        m.frames_seen = 1
        d = Frame(rng.uniform(0, 1, 9), 3, 3)
        r = rng.normal(size=2)
        s = rng.normal(size=9)
        hist = [(d, fake_result(r, s, m.basis))]
        resid = d.pixels - m.basis @ r - s
        expect = (
            0.5 * resid @ resid
            + 0.5 * params.lambda1 * (r @ r)
            + params.lambda2 * omega_norm(s, g)
            + 0.5 * params.lambda1 * np.sum(m.basis**2)
        )
        assert surrogate_cost(m, hist, g, params) == pytest.approx(expect, rel=1e-12)

    def test_surrogate_difference_matches_trace_form(self):
        model, history, g, params = run_history(9, 3, 3, 2, 4, seed=12)
        rng = np.random.default_rng(13)
        L1 = rng.normal(size=(9, 2))
        L2 = rng.normal(size=(9, 2))
        m1 = SubspaceModel(L1, model.accA, model.accB, model.frames_seen)
        m2 = SubspaceModel(L2, model.accA, model.accB, model.frames_seen)
        g_diff = surrogate_cost(m1, history, g, params) - surrogate_cost(
            m2, history, g, params
        )
        # the tracker's constant cancels in the difference
        tracker = SurrogateTracker()
        t_diff = tracker.value(m1, params) - tracker.value(m2, params)
        assert abs(g_diff - t_diff) < 1e-10

    def test_surrogate_dominates_empirical(self):
        model, history, g, params = run_history(9, 3, 3, 2, 5, seed=14)
        g_val = surrogate_cost(model, history, g, params)
        f_val = empirical_cost(model.basis, [d for d, _ in history], g, params)
        assert f_val <= g_val + 1e-8

    def test_empirical_single_frame_is_reoptimized_cost(self):
        rng = np.random.default_rng(15)
        g = build_grid_groups(3, 3)
        params = HyperParams(lambda1=0.2, lambda2=0.4, rank=2)
        L = rng.normal(size=(9, 2)) / 3.0
        d = Frame(rng.uniform(0, 1, 9), 3, 3)
        res = separate(d, L, g, replace(params, tau=params.tau / 10.0))
        resid = d.pixels - res.background - res.foreground
        expect = (
            0.5 * resid @ resid
            + 0.5 * params.lambda1 * (res.coeffs @ res.coeffs)
            + params.lambda2 * omega_norm(res.foreground, g)
            + 0.5 * params.lambda1 * np.sum(L * L)
        )
        assert empirical_cost(L, [d], g, params) == pytest.approx(expect, rel=1e-10)

    def test_empirical_all_zero(self):
        g = build_grid_groups(3, 3)
        params = HyperParams(lambda1=0.2, lambda2=0.4, rank=2)
        frames = [Frame(np.zeros(9), 3, 3)]
        assert empirical_cost(np.zeros((9, 2)), frames, g, params) == 0.0


# float64 bit patterns: any double, any 64 bits (NaN payloads included),
# and the edges: +-0, +-inf, the smallest and largest subnormals, a quiet and
# a signalling NaN, and a negative NaN with a payload
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x1, 0x000FFFFFFFFFFFFF,
                0x7FF8000000000000, 0x7FF0000000000001, 0xFFF80000DEADBEEF]
float_bits = st.one_of(
    st.floats().map(lambda x: int(np.float64(x).view(np.uint64))),
    st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))


class TestCheckpoint:
    # the files are rewritten on every example, so one tmp_path serves all
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**64 - 1),
           st.floats(0.0, exclude_min=True, allow_infinity=False),
           st.floats(0.0, exclude_min=True, allow_infinity=False), st.data())
    def test_round_trip_bit_exact(self, tmp_path, H, W, seen, lam1, lam2,
                                  data):
        def draw(shape):
            bits = data.draw(arrays(np.uint64, shape, elements=float_bits))
            return bits.view(np.float64)

        rank = data.draw(st.integers(1, min(4, H * W)))
        m = SubspaceModel(basis=draw((H * W, rank)), accA=draw((rank, rank)),
                          accB=draw((H * W, rank)), frames_seen=seen)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, H, W, lam1, lam2)
        again, h, w, l1, l2 = load_checkpoint(path)
        assert (h, w, l1, l2, again.frames_seen) == (H, W, lam1, lam2, seen)
        for a, b in ((again.basis, m.basis), (again.accA, m.accA),
                     (again.accB, m.accB)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # save -> load -> save writes the same bytes
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, again, h, w, l1, l2)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.floats(), st.floats())
    def test_save_writes_only_headers_that_load_accepts(self, tmp_path, H, W,
                                                        rank, lam1, lam2):
        m = SubspaceModel(basis=np.ones((H * W, rank)),
                          accA=np.ones((rank, rank)),
                          accB=np.ones((H * W, rank)))
        path = tmp_path / "model.ckpt"
        path.unlink(missing_ok=True)
        try:
            save_checkpoint(path, m, H, W, lam1, lam2)
        except ValueError:
            assert not path.exists()
            return
        again, h, w, l1, l2 = load_checkpoint(path)
        assert (h, w, again.rank) == (H, W, rank)
        assert (np.float64(l1).tobytes(), np.float64(l2).tobytes()) == (
            np.float64(lam1).tobytes(), np.float64(lam2).tobytes())

    def test_save_refuses_a_nan_lambda(self, tmp_path):
        rng = np.random.default_rng(25)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="checkpoint header"):
            save_checkpoint(path, fresh_model(6, 2, rng), 2, 3, np.nan, 1.0)
        assert not path.exists()

    def test_rejects_corrupt_files(self, tmp_path):
        rng = np.random.default_rng(18)
        m = fresh_model(6, 2, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, 2, 3, 0.1, 1.0)
        raw = bytearray(path.read_bytes())
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMAGIC" + raw[8:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)
        bad.write_bytes(bytes(raw[:-8]))
        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field, value", [
        ("height", 0), ("width", 0), ("rank", 0), ("lambda1", np.nan),
        ("lambda1", 0.0), ("lambda2", -1.0), ("lambda2", np.inf)])
    def test_rejects_a_header_no_model_can_have(self, tmp_path, field,
                                                value):
        # the payload is as long as the header asks, so only the header's
        # values are wrong
        head = {"height": 2, "width": 3, "rank": 2, "lambda1": 0.1,
                "lambda2": 1.0}
        head[field] = value
        p, rank = head["height"] * head["width"], head["rank"]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<IIIIQdd", CHECKPOINT_VERSION, head["height"],
                          head["width"], rank, 0, head["lambda1"],
                          head["lambda2"])
            + bytes(8 * (2 * p * rank + rank * rank)))
        with pytest.raises(ValueError, match="checkpoint header"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        rng = np.random.default_rng(20)
        m = fresh_model(6, 2, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, 2, 3, 0.1, 1.0)
        before = path.read_bytes()
        bad = fresh_model(6, 2, rng)
        bad.accB = np.full((6, 2), "x", dtype=object)  # fails after the basis
        with pytest.raises(ValueError):
            save_checkpoint(path, bad, 2, 3, 0.1, 1.0)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_dimension_guard(self, tmp_path):
        rng = np.random.default_rng(19)
        m = fresh_model(6, 2, rng)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", m, 2, 2, 0.1, 1.0)

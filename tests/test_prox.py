import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modet
import modet.prox
from conftest import add_covering_windows
from modet.groups import GroupStructure, build_grid_groups, omega_norm
from modet.io import SynthSpec, synth_sequence
from modet.pipeline import run_sequence
from modet.prox import (
    ETA,
    _CFLAGS,
    _SOURCE,
    _load_kernel,
    _project_l1_rows,
    oracle_prox,
    project_l1_ball,
    structured_prox,
    structured_prox_dual,
)

needs_c = pytest.mark.skipif(modet.prox._sweep_c is None,
                             reason="the C sweep kernel could not be built")


def two_group_structure():
    return GroupStructure([np.arange(0, 6), np.arange(3, 9)], [1.0, 1.0], 9)


def primal_objective(u, s, g, lam2):
    return 0.5 * np.sum((u - s) ** 2) + lam2 * omega_norm(s, g)


def simplex_grid_oracle_3d(v, radius, rounds=4, n=201):
    """Refined grid search over |x| on the simplex sum=radius (3d only).

    Valid when ||v||_1 > radius, where the projection saturates the ball.
    """
    a = np.abs(v)
    lo = np.zeros(2)
    hi = np.full(2, radius)
    c0 = c1 = 0.0
    for _ in range(rounds):
        w0 = np.linspace(lo[0], hi[0], n)
        w1 = np.linspace(lo[1], hi[1], n)
        W0, W1 = np.meshgrid(w0, w1, indexing="ij")
        W2 = radius - W0 - W1
        obj = (W0 - a[0]) ** 2 + (W1 - a[1]) ** 2
        obj = obj + np.where(W2 >= 0, (W2 - a[2]) ** 2, np.inf)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        c0, c1 = w0[i], w1[j]
        step0 = (hi[0] - lo[0]) / (n - 1)
        step1 = (hi[1] - lo[1]) / (n - 1)
        lo = np.array([max(0.0, c0 - 2 * step0), max(0.0, c1 - 2 * step1)])
        hi = np.array([min(radius, c0 + 2 * step0), min(radius, c1 + 2 * step1)])
    w = np.array([c0, c1, radius - c0 - c1])
    return np.sign(v) * np.maximum(w, 0.0)


@st.composite
def small_structures(draw):
    """A random desk-scale structure (p <= 16, <= 8 groups of k pixels), u
    and lambda2."""
    p = draw(st.integers(1, 16))
    k = draw(st.integers(-(-p // 7), p))  # at most 7 covering windows
    perms = draw(st.lists(st.permutations(range(p)), min_size=1,
                          max_size=8 - -(-p // k)))
    groups = add_covering_windows([sorted(pm[:k]) for pm in perms], p, k)
    weights = draw(st.lists(st.floats(0.5, 2.0), min_size=len(groups),
                            max_size=len(groups)))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p))
    g = GroupStructure(groups, weights, p)
    return g, np.array(u), draw(st.floats(0.05, 1.0))


def plain_bcd(u, g, lam2, tol, init=None, max_iters=100_000):
    """Reference: the color-major dual sweeps with no extrapolation step.

    Returns the foreground and the sweeps run.
    """
    radii = lam2 * g.weights
    xi = np.zeros(g.index_matrix.shape) if init is None else init.copy()
    res = np.zeros(g.p)
    np.subtract.at(res, g.index_matrix.ravel(), xi.ravel())
    res += u
    for sweeps in range(1, max_iters + 1):
        change = 0.0
        for cls in g.colors:
            idx = g.index_matrix[cls]
            new = _project_l1_rows(res[idx] + xi[cls], radii[cls])
            delta = new - xi[cls]
            change = max(change, float(np.abs(delta).max(initial=0.0)))
            res[idx] -= delta
            xi[cls] = new
        if change <= tol:
            return res, sweeps
    raise AssertionError("the reference sweeps did not converge")


def gaussian_blob(shift=0):
    yy, xx = np.mgrid[:64, :64]
    return np.exp(-((yy - 30) ** 2 + (xx - 22 - shift) ** 2) / 32.0).ravel()


class TestProjectL1Ball:
    def test_axis_aligned_shrink(self):
        assert project_l1_ball(np.array([3.0, 0.0]), 1.0).tolist() == [1.0, 0.0]

    def test_interior_point_unchanged(self):
        v = np.array([0.2, -0.1, 0.05])
        out = project_l1_ball(v, 1.0)
        assert np.array_equal(out, v)

    def test_zero_radius(self):
        assert not project_l1_ball(np.array([1.0, -2.0]), 0.0).any()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.array([1.0]), -0.1)

    def test_matches_simplex_grid_search(self):
        v = np.array([0.6, -0.4, 0.2])
        got = project_l1_ball(v, 0.5)
        ref = simplex_grid_oracle_3d(v, 0.5)
        assert np.abs(got - ref).max() < 1e-6
        # frozen from the grid oracle (exact value of this instance)
        assert np.allclose(got, [0.35, -0.15, 0.0], atol=1e-12)

    def test_feasible_and_closest(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            v = rng.normal(size=6)
            r = rng.uniform(0.1, 2.0)
            x = project_l1_ball(v, r)
            assert np.abs(x).sum() <= r + 1e-12
            d_best = np.sum((v - x) ** 2)
            for _ in range(40):
                cand = rng.normal(size=6)
                cand = cand / max(1.0, np.abs(cand).sum() / r)
                assert d_best <= np.sum((v - cand) ** 2) + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-10.0, 10.0)), st.floats(0.0, 20.0))
    # radii far below the entries: 2 - (2 - 1e-9) is not 1e-9, and 1e-17
    # is below the rounding of 1.0
    @example(np.array([2.0]), 1e-9)
    @example(np.array([1.0, 0.5]), 1e-17)
    def test_feasible_idempotent_and_moreau(self, v, radius):
        x = project_l1_ball(v, radius)
        assert np.abs(x).sum() <= radius * (1.0 + 1e-12)
        assert np.abs(project_l1_ball(x, radius) - x).max() <= 1e-13 * radius
        if radius > 0.0:
            # u = prox(u) + projection(u) for the one-group norm
            g = GroupStructure([np.arange(v.size)], [1.0], v.size)
            s = structured_prox(v, g, radius)
            assert np.abs(s + x - v).max() <= 1e-12 * max(1.0, radius)

    def test_rows_variant_matches_1d(self):
        rng = np.random.default_rng(1)
        V = rng.normal(size=(12, 5))
        V[3, 3:] = 0.0  # a row with trailing zeros
        radii = rng.uniform(0.05, 2.0, size=12)
        radii[5] = 0.0
        out = _project_l1_rows(V, radii)
        for i in range(12):
            assert np.allclose(out[i], project_l1_ball(V[i], radii[i]), atol=1e-14)


class TestStructuredProx:
    def test_zero_input(self):
        g = two_group_structure()
        assert not structured_prox(np.zeros(9), g, 0.5).any()

    def test_full_shrinkage_single_group(self):
        g = GroupStructure([list(range(9))], [1.0], 9)
        rng = np.random.default_rng(2)
        u = rng.uniform(-1, 1, 9)
        lam2 = np.abs(u).sum()  # ball contains u exactly at the boundary
        s = structured_prox(u, g, lam2)
        assert np.abs(s).max() <= 1e-14

    def test_matches_oracle_on_overlapping_groups(self):
        g = two_group_structure()
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.uniform(-1, 1, 9)
            s = structured_prox(u, g, 0.3, tol=1e-11, max_iters=5000)
            ref = oracle_prox(u, g, 0.3)
            assert np.abs(s - ref).max() < 1e-5

    def test_row_on_its_sequential_l1_sum_is_inside_the_ball(self):
        # the backends sum a row's |entries| in order, never pairwise: at a
        # radius equal to that sum the row is inside the ball, s = 0
        rng = np.random.default_rng(14)
        for p in (9, 300):
            g = GroupStructure([np.arange(p)], [1.0], p)
            a = np.zeros(p)
            while a.sum() <= sum(a.tolist()):
                u = rng.normal(size=p)
                a = np.abs(u)
            s = structured_prox(u, g, sum(a.tolist()))
            assert not s.any()

    def test_moreau_identity_single_group(self):
        g = GroupStructure([list(range(7))], [1.0], 7)
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.normal(size=7)
            lam2 = rng.uniform(0.1, 2.0)
            s = structured_prox(u, g, lam2)
            assert np.abs(s + project_l1_ball(u, lam2) - u).max() < 1e-10

    def test_nonexpansive(self):
        g = build_grid_groups(4, 4)
        rng = np.random.default_rng(5)
        for _ in range(15):
            u1 = rng.normal(size=16)
            u2 = rng.normal(size=16)
            s1 = structured_prox(u1, g, 0.2, tol=1e-11, max_iters=3000)
            s2 = structured_prox(u2, g, 0.2, tol=1e-11, max_iters=3000)
            assert np.linalg.norm(s1 - s2) <= np.linalg.norm(u1 - u2) + 1e-9

    def test_optimality_certificate(self):
        g = build_grid_groups(4, 4)
        rng = np.random.default_rng(6)
        u = rng.uniform(-1, 1, 16)
        lam2 = 0.15
        s = structured_prox(u, g, lam2, tol=1e-12, max_iters=10000)
        base = primal_objective(u, s, g, lam2)
        for _ in range(50):
            direction = rng.normal(size=16)
            direction /= np.linalg.norm(direction)
            for sign in (1.0, -1.0):
                perturbed = primal_objective(u, s + sign * 1e-3 * direction, g, lam2)
                assert base <= perturbed + 1e-9

    def test_primal_dual_identity(self):
        g = two_group_structure()
        rng = np.random.default_rng(7)
        u = rng.uniform(-1, 1, 9)
        s, xi, _, _ = structured_prox_dual(u, g, 0.4)
        scatter = np.zeros(10)
        np.add.at(scatter, g.index_matrix.ravel(), xi.ravel())
        assert np.abs(s - (u - scatter[:9])).max() < 1e-12
        # dual feasibility
        assert (np.abs(xi).sum(axis=1) <= 0.4 + 1e-12).all()

    def test_shrinkage_monotone_in_lambda2(self):
        g = build_grid_groups(4, 4)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.uniform(-1, 1, 16)
            lams = sorted(rng.uniform(0.01, 1.0, size=3))
            omegas = [
                omega_norm(structured_prox(u, g, lam, tol=1e-11, max_iters=3000), g)
                for lam in lams
            ]
            assert omegas[0] >= omegas[1] - 1e-10
            assert omegas[1] >= omegas[2] - 1e-10

    def test_dual_objective_nonincreasing_over_sweeps(self):
        g = build_grid_groups(5, 5)
        rng = np.random.default_rng(9)
        u = rng.uniform(-1, 1, 25)
        objs = []
        for k in range(1, 13):
            s, _, _, _ = structured_prox_dual(u, g, 0.2, tol=0.0, max_iters=k)
            objs.append(0.5 * np.sum(s**2))  # s = u - sum_g xi_g
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_warm_start_reaches_same_answer(self):
        g = two_group_structure()
        rng = np.random.default_rng(11)
        u1 = rng.uniform(-1, 1, 9)
        u2 = u1 + 0.05 * rng.normal(size=9)
        _, xi, _, _ = structured_prox_dual(u1, g, 0.3, tol=1e-11, max_iters=5000)
        warm, _, _, _ = structured_prox_dual(
            u2, g, 0.3, tol=1e-11, max_iters=5000, init=xi
        )
        cold, _, _, _ = structured_prox_dual(u2, g, 0.3, tol=1e-11, max_iters=5000)
        assert np.abs(warm - cold).max() < 1e-8

    def test_reaches_plain_sweeps_fixed_point_in_fewer_sweeps(self):
        # a 64x64 Gaussian blob: the plain sweeps converge geometrically
        # over tens of sweeps, so the extrapolation step fires
        g = build_grid_groups(64, 64)
        lam2, tol = 0.16, 1e-8
        _, done, _, _ = structured_prox_dual(gaussian_blob(), g, lam2,
                                             tol=1e-12, max_iters=5000)
        for u, init in ((gaussian_blob(), None), (gaussian_blob(1), done)):
            fixed, _ = plain_bcd(u, g, lam2, tol=1e-14, init=init)
            plain, plain_sweeps = plain_bcd(u, g, lam2, tol=tol, init=init)
            s, _, sweeps, change = structured_prox_dual(u, g, lam2, tol=tol,
                                                        init=init)
            assert change <= tol
            assert np.abs(plain - fixed).max() <= 10 * tol
            assert np.abs(s - fixed).max() <= 10 * tol
            assert sweeps < plain_sweeps

    def test_bound_stops_early_with_a_certified_descent(self):
        g = build_grid_groups(64, 64)
        u = gaussian_blob()
        ref, _, full_sweeps, _ = structured_prox_dual(u, g, 0.16, tol=1e-12,
                                                      max_iters=2000)
        best = primal_objective(u, ref, g, 0.16)
        for bound in (0.5 * (u @ u), best + 0.01 * (0.5 * (u @ u) - best)):
            s, _, sweeps, change = structured_prox_dual(u, g, 0.16,
                                                        bound=bound)
            assert change > 1e-8 and sweeps < full_sweeps  # the gap stopped it
            value = primal_objective(u, s, g, 0.16)
            assert value <= bound
            assert value - best <= ETA * (bound - value) + 1e-12
        # a bound at the optimum leaves the gap test unmet: tol stops the call
        _, _, _, change = structured_prox_dual(u, g, 0.16, bound=best)
        assert change <= 1e-8

    def test_rejects_bad_inputs(self):
        g = two_group_structure()
        with pytest.raises(ValueError):
            structured_prox(np.full(9, np.nan), g, 0.3)
        with pytest.raises(ValueError):
            structured_prox(np.zeros(8), g, 0.3)
        with pytest.raises(ValueError):
            structured_prox(np.zeros(9), g, 0.0)
        with pytest.raises(ValueError):
            structured_prox_dual(np.zeros(9), g, 0.3, init=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            structured_prox_dual(np.zeros(9), g, 0.3, bound=np.nan)


@pytest.mark.usefixtures("numpy_backend")
class TestStructuredProxNumpy(TestStructuredProx):
    """The same cases on the numpy fallback."""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_structures())
def test_prox_matches_oracle_on_random_structures(case):
    g, u, lam2 = case
    ref = oracle_prox(u, g, lam2)
    kernel = modet.prox._sweep_c
    try:
        for backend in (kernel, None):  # C (when built), then numpy
            modet.prox._sweep_c = backend
            s = structured_prox(u, g, lam2, tol=1e-11, max_iters=5000)
            assert np.abs(s - ref).max() < 1e-5
    finally:
        modet.prox._sweep_c = kernel


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_structures(), st.floats(0.0, 1.0))
def test_bounded_prox_stops_below_its_bound_near_the_optimum(case, frac):
    g, u, lam2 = case
    best = primal_objective(u, structured_prox(u, g, lam2, tol=1e-12,
                                               max_iters=5000), g, lam2)
    # between the optimum and P(0) = 0.5 ||u||^2; at frac 0 only tol stops
    bound = best + frac * (0.5 * (u @ u) - best)
    kernel = modet.prox._sweep_c
    try:
        for backend in (kernel, None):  # C (when built), then numpy
            modet.prox._sweep_c = backend
            s, _, sweeps, change = structured_prox_dual(u, g, lam2,
                                                        bound=bound)
            if change <= 1e-8 or sweeps >= 200:
                continue  # stopped on tol or on the cap
            value = primal_objective(u, s, g, lam2)
            assert value <= bound + 1e-12
            assert value - best <= ETA * (bound - value) + 1e-12
    finally:
        modet.prox._sweep_c = kernel


def random_structure(rng, p, k):
    """Random groups of k pixels, plus k-wide windows over what they miss."""
    rows = [sorted(rng.choice(p, k, replace=False).tolist())
            for _ in range(int(rng.integers(1, 30)))]
    rows = add_covering_windows(rows, p, k)
    return GroupStructure(rows, rng.uniform(0.5, 2.0, len(rows)), p)


def prox_bytes(*args, **kw):
    s, xi, sweeps, change = structured_prox_dual(*args, **kw)
    return s.tobytes(), xi.tobytes(), sweeps, change


@needs_c
class TestBackends:
    def both(self, monkeypatch, fn):
        c = fn()
        with monkeypatch.context() as m:
            m.setattr(modet.prox, "_sweep_c", None)
            numpy = fn()
        return c, numpy

    def test_prox_bit_equal(self, monkeypatch):
        rng = np.random.default_rng(10)
        cases = [(build_grid_groups(64, 64),
                  rng.normal(0, 0.3, 4096) * (rng.random(4096) < 0.1), 0.16)]
        # rows both sides of the 8- and 128-wide steps of numpy's pairwise sum
        for p, k in ((5, 3), (9, 9), (40, 12), (300, 150)):
            g = random_structure(rng, p, k)
            cases.append((g, rng.normal(size=p), float(rng.uniform(0.05, 1))))
        for p in (9, 300):
            # radius = the smaller of numpy's pairwise and the sequential
            # l1 sum: the group is inside the ball in one order, outside in
            # the other, and both backends must take the sequential one
            a = np.zeros(p)
            while a.sum() == sum(a.tolist()):
                u = rng.normal(size=p)
                a = np.abs(u)
            cases.append((GroupStructure([np.arange(p)], [1.0], p), u,
                          min(a.sum(), sum(a.tolist()))))
        # a radius below the rounding of the largest entry: no entry counts
        # towards rho, and both backends clamp it to 1
        cases.append((GroupStructure([np.arange(3)], [1.0], 3),
                       np.array([1.0, -0.5, 0.0]), 1e-17))
        # signed zeros: -0.0 inputs, and small negative entries that the
        # projection shrinks to -0.0
        g = build_grid_groups(6, 6)
        u = rng.normal(0, 0.1, 36)
        u[::4] = -0.0
        cases.append((g, u, 0.05))
        # the extrapolation step fires on the 64x64 grids and on the random
        # structures of 40 and 300 pixels above, and repeatedly on the
        # blob; on the two sparse grids after it, it fires once, and five
        # sweeps later the safeguard turns it off
        cases.append((build_grid_groups(64, 64), gaussian_blob(), 0.16))
        for n, seed in ((12, 16), (16, 13)):
            r = np.random.default_rng(seed)
            cases.append((build_grid_groups(n, n),
                          r.normal(0, 0.3, n * n) * (r.random(n * n) < 0.3),
                          0.16))
        for g, u, lam in cases:
            # bounds at P(0) and just above the optimum: the gap test stops
            # the call early, or (when s = 0 is optimal) never
            best = primal_objective(u, structured_prox(u, g, lam), g, lam)
            bounds = (0.5 * (u @ u), best + 1e-3 * (0.5 * (u @ u) - best))
            # tol=0 keeps sweeping after the dual has settled, with nearly
            # every group left unchanged by its last visit
            for kw in (dict(), dict(tol=1e-12, max_iters=500),
                       dict(tol=0.0, max_iters=3), dict(tol=0.0, max_iters=300),
                       dict(bound=bounds[0]), dict(bound=bounds[1]),
                       dict(tol=0.0, max_iters=300, bound=bounds[1])):
                c, numpy = self.both(monkeypatch,
                                     lambda: prox_bytes(u, g, lam, **kw))
                assert c == numpy
            _, warm, _, _ = structured_prox_dual(u, g, lam, max_iters=2)
            for kw in (dict(), dict(bound=0.5 * 0.81 * (u @ u))):
                c, numpy = self.both(monkeypatch, lambda: prox_bytes(
                    u * 0.9, g, lam, init=warm, **kw))
                assert c == numpy
        # one 5x5 blob on 64x64, warm-started from its converged dual: from
        # the first sweep on, nearly every group is left unchanged
        g = build_grid_groups(64, 64)
        blob = np.zeros((64, 64))
        blob[30:35, 20:25] = 1.0
        _, done, _, _ = structured_prox_dual(blob.ravel(), g, 0.16, tol=0.0,
                                             max_iters=2000)
        for u in (blob.ravel(), np.roll(blob, 1, axis=1).ravel()):
            for kw in (dict(), dict(tol=0.0, max_iters=50),
                       dict(bound=0.5 * (u @ u))):
                c, numpy = self.both(monkeypatch, lambda: prox_bytes(
                    u, g, 0.16, init=done, **kw))
                assert c == numpy

    def test_run_sequence_byte_identical(self, monkeypatch):
        frames, _ = synth_sequence(SynthSpec(n_frames=5), seed=3)
        frames = list(frames)

        def run():
            seps = []
            summary = run_sequence(
                iter(frames), seed=0,
                evaluator=lambda f, sep: seps.append(sep) or {})
            return ([(sep.foreground.tobytes(), sep.coeffs.tobytes(),
                      sep.objective_trace) for sep in seps],
                    summary.model.basis.tobytes())

        c, numpy = self.both(monkeypatch, run)
        assert c == numpy


# Runs a kernel library given on the command line against the numpy sweeps
# on random structures of one group size each, cold and warm-started, where
# the extrapolation step fires, and on two sparse grids where its safeguard
# turns it off; each call without a bound and with the bound P(0), where
# the gap test stops it.
ASAN_SCRIPT = """
import ctypes, sys
import numpy as np
import modet.prox as prox
from conftest import add_covering_windows
from modet.groups import GroupStructure, build_grid_groups

fn = ctypes.CDLL(sys.argv[1]).dual_sweeps
fn.argtypes, fn.restype = prox._sweep_c.argtypes, prox._sweep_c.restype
rng = np.random.default_rng(0)
cases = []
for case in range(50):
    p = int(rng.integers(1, 300))
    k = int(rng.integers(1, p + 1))
    rows = add_covering_windows(
        [sorted(rng.choice(p, k, replace=False).tolist())
         for _ in range(int(rng.integers(1, 20)))], p, k)
    g = GroupStructure(rows, rng.uniform(0.5, 2.0, len(rows)), p)
    cases.append((g, rng.normal(size=p) * (rng.random(p) < 0.7),
                  float(rng.uniform(0.05, 1.0)), 40))
for n, seed in ((12, 16), (16, 13)):
    r = np.random.default_rng(seed)
    cases.append((build_grid_groups(n, n),
                  r.normal(0, 0.3, n * n) * (r.random(n * n) < 0.3), 0.16, 60))
for case, (g, u, lam, sweeps) in enumerate(cases):
    _, warm, _, _ = prox.structured_prox_dual(u, g, lam, max_iters=2)
    out = []
    for kernel in (fn, None):
        prox._sweep_c = kernel
        for init in (None, warm):
            for bound in (None, 0.5 * (u @ u)):
                s, xi, n, change = prox.structured_prox_dual(
                    u, g, lam, tol=0.0, max_iters=sweeps, init=init,
                    bound=bound)
                out.append((s.tobytes(), xi.tobytes(), n, change))
    if out[:4] != out[4:]:
        sys.exit(f"case {case}: the kernel and numpy differ")
print(f"{len(cases)} cases bit-identical, with and without a bound")
"""


class TestKernelBuild:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_kernel_warning_free_and_clean_under_asan(self, tmp_path):
        run = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *_CFLAGS,
                              "-o", str(tmp_path / "strict.so"), str(_SOURCE),
                              "-lm"], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        asan = subprocess.run(["cc", "-print-file-name=libasan.so"],
                              capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(asan) or modet.prox._sweep_c is None:
            pytest.skip("libasan or the C sweep kernel is missing")
        lib = tmp_path / "asan.so"
        subprocess.run(["cc", "-fsanitize=address", "-g", "-O1",
                        "-ffp-contract=off", "-fPIC", "-shared", "-o", str(lib),
                        str(_SOURCE), "-lm"], check=True, capture_output=True)
        src = str(Path(modet.__file__).resolve().parent.parent)
        env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, str(Path(__file__).parent),
                       os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", ASAN_SCRIPT, str(lib)],
                             env=env, capture_output=True, text=True,
                             timeout=600)
        assert run.returncode == 0, run.stderr[-4000:]
        assert (run.stdout.strip()
                == "52 cases bit-identical, with and without a bound")

    def test_missing_compiler_falls_back(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="modet.prox"):
            fn = _load_kernel(cache_dir=tmp_path, cc=str(tmp_path / "no-cc"))
        assert fn is None
        assert "numpy sweeps" in caplog.text
        assert not list(tmp_path.iterdir())  # no partial library left

    def test_missing_source_falls_back(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="modet.prox"):
            fn = _load_kernel(tmp_path / "missing.c", cache_dir=tmp_path / "c")
        assert fn is None
        assert "cannot read the sweep kernel source" in caplog.text
        assert "numpy sweeps" in caplog.text
        assert not (tmp_path / "c").exists()

    def test_compile_error_logs_compiler_stderr(self, tmp_path, caplog):
        bad = tmp_path / "_sweep.c"
        bad.write_text("int dual_sweeps( {\n")
        with caplog.at_level(logging.WARNING, logger="modet.prox"):
            fn = _load_kernel(bad, cache_dir=tmp_path / "cache")
        assert fn is None
        assert "error" in caplog.text
        assert not list((tmp_path / "cache").iterdir())

    @needs_c
    def test_unwritable_cache_compiles_in_temp_dir(self, tmp_path, caplog):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="modet.prox"):
            fn = _load_kernel(cache_dir=blocker / "cache")
        assert fn is not None
        assert "cannot write the kernel cache" in caplog.text

    def test_no_writable_dir_falls_back(self, tmp_path, monkeypatch, caplog):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(tempfile, "tempdir", str(blocker / "tmp"))
        with caplog.at_level(logging.WARNING, logger="modet.prox"):
            fn = _load_kernel(cache_dir=blocker / "cache")
        assert fn is None
        assert "numpy sweeps" in caplog.text

    @needs_c
    def test_edited_source_gets_new_cache_file(self, tmp_path):
        src = tmp_path / "_sweep.c"
        shutil.copy(modet.prox._SOURCE, src)
        cache = tmp_path / "cache"
        assert _load_kernel(src, cache_dir=cache) is not None
        first = {f.name for f in cache.iterdir()}
        assert _load_kernel(src, cache_dir=cache) is not None  # cache hit
        assert {f.name for f in cache.iterdir()} == first
        src.write_text(src.read_text() + "/* edited */\n")
        assert _load_kernel(src, cache_dir=cache) is not None
        names = {f.name for f in cache.iterdir()}
        assert len(first) == 1 and len(names) == 2 and first < names
        assert all(n.startswith("sweep-") and n.endswith(".so") for n in names)


class TestOracleProx:
    def test_single_group_moreau(self):
        g = GroupStructure([list(range(6))], [1.0], 6)
        rng = np.random.default_rng(12)
        u = rng.normal(size=6)
        ref = u - project_l1_ball(u, 0.7)
        assert np.abs(oracle_prox(u, g, 0.7) - ref).max() < 1e-7

    def test_hand_worked_two_pixel_case(self):
        g = GroupStructure([[0, 1]], [1.0], 2)
        s = oracle_prox(np.array([1.0, 1.0]), g, 0.5)
        # l1 projection of (1,1) to radius 0.5 is (0.25,0.25)
        assert np.allclose(s, [0.75, 0.75], atol=1e-7)

    def test_disjoint_groups_separable(self):
        g = GroupStructure([[0, 1, 2], [3, 4, 5]], [1.0, 1.0], 6)
        rng = np.random.default_rng(13)
        u = rng.normal(size=6)
        s = oracle_prox(u, g, 0.4)
        for block in (slice(0, 3), slice(3, 6)):
            sub = GroupStructure([[0, 1, 2]], [1.0], 3)
            assert np.abs(s[block] - oracle_prox(u[block], sub, 0.4)).max() < 1e-7

    def test_desk_scale_limits(self):
        g = build_grid_groups(10, 10)
        with pytest.raises(ValueError):
            oracle_prox(np.zeros(100), g, 0.3)

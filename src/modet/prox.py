"""Proximal operator of the structured-sparsity norm, solved through its dual.

The primal problem  min_s 0.5*||u - s||^2 + lambda2 * Omega(s)  is handled via
its dual: one l1-ball-constrained vector xi_g per group, coupled only through
the shared residual u - sum_g xi_g. Block coordinate descent over the groups
is exact per block (a Euclidean l1-ball projection); the primal solution is
recovered as s = u - sum_g xi_g.

A sweep visits the groups color-major: the color classes in sequence, the
groups of one color in index order. Two backends run that one schedule: a
small C kernel (``_sweep.c``), compiled with the system ``cc`` once per
source hash and loaded through ctypes when this module is imported, and a
vectorized numpy path that batches each color class into one step. Both
run the same floating-point operations in the same order, the row l1 sums
included (sequential, written out in both), so they give bit-identical
results. ``BACKEND`` names the one this process uses.

The kernel also skips a group whose last visit rewrote no bit of its dual
row while no residual entry on its pixels has changed bits since: that
visit would read and write the same bits. The numpy path visits every
group; the skip leaves sweep counts, changes, dual states and foregrounds
bit-identical.

Both backends accelerate the geometric tail of the sweeps with a
safeguarded Aitken step. After sweep k, with r = change_k / change_{k-1}:
when r < 1, r is within ``_AITKEN_RATIO_TOL`` (relative) of the previous
ratio, at least ``_AITKEN_WAIT`` sweeps ran since the last step and k is not
the last sweep, every dual row that sweep k changed moves to
x + r / (1 - r) * (x - x_before), and the residual follows. If the change
``_AITKEN_WAIT`` sweeps after a step exceeds the change at the step, the
steps stop for the rest of the call. Only a plain sweep can meet the stop
test, so a call never returns an extrapolated state.

A call given a ``bound`` on the primal value also stops after a plain sweep
whose residual res (the primal candidate s) satisfies P(res) <= bound and
G <= ``ETA`` * (bound - P(res)), with

    P(s) = 0.5 * ||u - s||^2 + lambda2 * Omega(s),
    G    = P(res) - D(xi),   D(xi) = 0.5 * ||u||^2 - 0.5 * ||res||^2.

D is the dual objective, and xi is dual feasible after every sweep, so
D(xi) <= P* and P(res) - P* <= G: the candidate lies below the bound, and
its excess over the optimum is at most ``ETA`` times its margin below the
bound. The caller's
bound is the primal value of its previous iterate, so the call certifies
descent and its accuracy follows the decrease the step makes; when that
decrease vanishes, only the ``tol`` test can stop the call. Both backends
add every sum of the test sequentially in index order, so they stay
bit-identical; the kernel recomputes a group's max only when a residual
entry on its pixels has changed since the last test.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .groups import GroupStructure

log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_sweep.c")
# No -march=native: the cached library must stay portable. No FMA
# contraction: a fused multiply-add rounds differently from numpy.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# The Aitken step of the sweeps; both backends read these.
_AITKEN_WAIT = 5
_AITKEN_RATIO_TOL = 0.02
# The duality-gap stop of a bounded call: the gap's share of the decrease.
ETA = 0.01


def _load_kernel(source: Path = _SOURCE, cache_dir=None, cc: str = "cc"):
    """The compiled sweep function, or None, with a warning, when its source
    cannot be read or it cannot be built or loaded.

    The library is cached as ``sweep-<sha256>.so`` in ``cache_dir``
    (default ``${XDG_CACHE_HOME:-~/.cache}/modet``); the hash covers the
    source and the flags. It is compiled to a temporary name in that
    directory and renamed into place, so concurrent processes are safe.
    When the directory is not writable, the kernel is compiled into a
    temporary directory for this process only.
    """
    try:
        code = source.read_bytes()
    except OSError as exc:
        log.warning("cannot read the sweep kernel source (%s); using the "
                    "numpy sweeps", exc)
        return None
    digest = hashlib.sha256(code + " ".join(_CFLAGS).encode()).hexdigest()
    if cache_dir is None:
        cache_dir = Path(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache")) / "modet"
    cache_dir = Path(cache_dir)
    path = cache_dir / f"sweep-{digest}.so"
    if not path.exists():
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        except OSError as exc:
            log.warning("cannot write the kernel cache %s (%s); compiling "
                        "into a temporary directory", cache_dir, exc)
            try:
                with tempfile.TemporaryDirectory(prefix="modet-") as tmpdir:
                    return _load_kernel(source, tmpdir, cc)
            except OSError as exc:
                log.warning("no writable directory for the sweep kernel "
                            "(%s); using the numpy sweeps", exc)
                return None
        os.close(fd)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, path)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or str(exc)
            log.warning("compiling the sweep kernel with %r failed; using "
                        "the numpy sweeps: %s", cc, detail.strip())
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        fn = ctypes.CDLL(str(path)).dual_sweeps
    except (OSError, AttributeError) as exc:
        log.warning("loading the sweep kernel %s failed; using the numpy "
                    "sweeps: %s", path, exc)
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = [ptr, i64, ptr, i64, ptr, ptr, ptr, i64, ptr, i64, f64, f64,
                   f64, i64, f64, ptr]
    fn.restype = i64
    log.info("prox backend: C sweep kernel %s", path)
    return fn


_sweep_c = _load_kernel()
BACKEND = "c" if _sweep_c is not None else "numpy"


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the l1 ball of the given radius.

    Sort-based threshold search; O(n log n), no iteration. With u the sorted
    magnitudes, the rho largest entries are kept, rho being the number of k
    with sum_{j<=k} (u_j - u_k) < radius; each becomes its height above u_rho
    plus an equal share of what is left of the radius. Those sums are built
    from the gaps between neighbours, not from a threshold near the entries,
    so the result is accurate relative to the radius even when the radius
    is far below the entries.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    excess = np.cumsum(np.arange(u.size) * -np.diff(u, prepend=u[0]))
    rho = int(np.count_nonzero(excess < radius))  # >= 1: excess[0] = 0
    floor = u[rho - 1]
    share = (radius - excess[rho - 1]) / rho
    return np.sign(v) * np.where(a >= floor, a - floor + share, 0.0)


def _project_l1_rows(V: np.ndarray, radius) -> np.ndarray:
    """Row-wise l1-ball projection; ``radius`` is a scalar or per-row array."""
    radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), (V.shape[0],))
    out = V.copy()
    zero_rad = radius == 0.0
    if zero_rad.any():
        out[zero_rad] = 0.0
    A = np.abs(V)
    # a sequential sum, as _sweep.c adds: A.sum() would sum pairwise
    outside = (np.cumsum(A, axis=1)[:, -1] > radius) & ~zero_rad
    if not outside.any():
        return out
    Ao = A[outside]
    U = -np.sort(-Ao, axis=1)
    css = np.cumsum(U, axis=1)
    ks = np.arange(1, V.shape[1] + 1)
    rad = radius[outside]
    rho = np.maximum((U * ks > css - rad[:, None]).sum(axis=1), 1)
    theta = (css[np.arange(Ao.shape[0]), rho - 1] - rad) / rho
    out[outside] = np.sign(V[outside]) * np.maximum(Ao - theta[:, None], 0.0)
    return out


def _scatter_sum(xi: np.ndarray, g: GroupStructure) -> np.ndarray:
    return np.bincount(g.index_matrix.ravel(), weights=xi.ravel(),
                       minlength=g.p)


def structured_prox_dual(
    u: np.ndarray,
    g: GroupStructure,
    lambda2: float,
    tol: float = 1e-8,
    max_iters: int = 200,
    init: np.ndarray | None = None,
    bound: float | None = None,
):
    """Solve the structured prox; return (s, xi, sweeps, last_change).

    Cyclic block coordinate descent over the dual group variables, each block
    step an exact l1-ball projection of the current group residual. A sweep
    visits every group once, color-major; iteration stops when the largest
    single dual entry change in a sweep drops to ``tol`` or after
    ``max_iters`` sweeps. With a ``bound`` it also stops once the primal
    value is at most ``bound`` and the duality gap at most ``ETA`` times the
    margin (see the module docstring). ``xi`` is the dual state, one row per
    group aligned with ``g.index_matrix``; passing a returned ``xi`` as
    ``init`` warm-starts the dual variables.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size != g.p:
        raise ValueError(f"input length {u.size} != group domain {g.p}")
    if not np.all(np.isfinite(u)):
        raise ValueError("input contains non-finite values")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")
    if bound is not None and not np.isfinite(bound):
        raise ValueError("bound must be finite")

    radii = lambda2 * g.weights
    if init is not None:
        xi = np.array(init, dtype=np.float64, order="C")
        if xi.shape != g.index_matrix.shape:
            raise ValueError("warm-start dual state does not match the groups")
    else:
        xi = np.zeros(g.index_matrix.shape)

    res = u - _scatter_sum(xi, g)
    sweep = _colored_sweeps if _sweep_c is None else _c_sweeps
    sweeps, change = sweep(g, xi, res, u, radii, tol, int(max_iters), bound)

    s = u - _scatter_sum(xi, g)
    return s, xi, int(sweeps), float(change)


def _c_sweeps(g, xi, res, u, radii, tol, max_iters, bound):
    idx = g.index_matrix  # int64, C-contiguous, entries in [0, p)
    change = ctypes.c_double()
    sweeps = _sweep_c(idx.ctypes.data, idx.shape[1], g.order.ctypes.data,
                      g.order.size, xi.ctypes.data, res.ctypes.data,
                      u.ctypes.data, g.p, radii.ctypes.data, max_iters, tol,
                      np.nan if bound is None else bound, ETA, _AITKEN_WAIT,
                      _AITKEN_RATIO_TOL, ctypes.byref(change))
    if sweeps < 0:
        raise MemoryError("the sweep kernel could not allocate its scratch")
    return sweeps, change.value


def _gap_stop(g, res, u, uu, radii, bound):
    """The stop test of a bounded call, as _sweep.c's gap_stop adds it."""
    d = u - res
    gmax = np.abs(res[g.index_matrix]).max(axis=1)
    P = 0.5 * np.cumsum(d * d)[-1] + np.cumsum(radii * gmax)[-1]
    G = P - (0.5 * uu - 0.5 * np.cumsum(res * res)[-1])
    return P <= bound and G <= ETA * (bound - P)


def _colored_sweeps(g, xi, res, u, radii, tol, max_iters, bound):
    steps = [(cls, g.index_matrix[cls], radii[cls]) for cls in g.colors]
    change = np.inf
    sweeps = 0
    uu = None if bound is None else np.cumsum(u * u)[-1]
    # Aitken state, as in _sweep.c: the previous change and ratio, the
    # sweeps since the last step, the change at that step (None before it)
    last, ratio, since, at_step, steps_on = np.inf, 0.0, 0, None, True
    for sweeps in range(1, max_iters + 1):
        prev = xi.copy()
        change = 0.0
        for cls, idx, rad in steps:
            new = _project_l1_rows(res[idx] + xi[cls], rad)
            delta = new - xi[cls]
            change = max(change, float(np.abs(delta).max(initial=0.0)))
            res[idx] -= delta
            xi[cls] = new
        if change <= tol:
            break
        if bound is not None and _gap_stop(g, res, u, uu, radii, bound):
            break
        since += 1
        r = change / last if last > 0.0 else np.inf
        if since == _AITKEN_WAIT and at_step is not None and change > at_step:
            steps_on = False
        if (steps_on and since >= _AITKEN_WAIT and r < 1.0
                and abs(r - ratio) < _AITKEN_RATIO_TOL * r
                and sweeps < max_iters):
            # the rows this sweep changed, in the kernel's visit order
            moved = (xi.view(np.int64) != prev.view(np.int64)).any(axis=1)
            rows = g.order[moved[g.order]]
            x = xi[rows]
            new = x + r / (1.0 - r) * (x - prev[rows])
            np.subtract.at(res, g.index_matrix[rows].ravel(), (new - x).ravel())
            xi[rows] = new
            since, at_step = 0, change
        last, ratio = change, r
    return sweeps, change


def structured_prox(
    u: np.ndarray,
    g: GroupStructure,
    lambda2: float,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> np.ndarray:
    """Proximal map of lambda2 * Omega at u (primal solution only)."""
    s, _, _, _ = structured_prox_dual(u, g, lambda2, tol=tol, max_iters=max_iters)
    return s


def oracle_prox(
    u: np.ndarray,
    g: GroupStructure,
    lambda2: float,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> np.ndarray:
    """Independent desk-scale solver for the same prox, for verification.

    Projected gradient on the dual with a slowly diminishing step, all groups
    updated simultaneously (Jacobi), started from per-group projections of u
    rather than from zero. Restricted to p <= 64 and at most 8 groups.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size != g.p:
        raise ValueError(f"input length {u.size} != group domain {g.p}")
    if g.p > 64 or g.n_groups > 8:
        raise ValueError("oracle_prox is desk-scale only (p <= 64, <= 8 groups)")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")

    radii = lambda2 * g.weights
    idx = g.index_matrix
    coverage = np.bincount(idx.ravel(), minlength=g.p)
    base_step = 1.0 / float(coverage.max())

    xi = _project_l1_rows(u[idx], radii)
    for it in range(max_iters):
        residual = u - _scatter_sum(xi, g)
        step = base_step / (1.0 + it / 500.0)
        new = _project_l1_rows(xi + step * residual[idx], radii)
        change = float(np.abs(new - xi).max())
        xi = new
        if change <= tol:
            break
    return u - _scatter_sum(xi, g)

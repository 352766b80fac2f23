"""Proximal operator of the structured-sparsity norm, solved through its dual.

The primal problem  min_s 0.5*||u - s||^2 + lambda2 * Omega(s)  is handled via
its dual: one l1-ball-constrained vector xi_g per group, coupled only through
the shared residual u - sum_g xi_g. Block coordinate descent over the groups
is exact per block (a Euclidean l1-ball projection); the primal solution is
that residual, s = u - sum_g xi_g, which the sweeps keep up to date.

A sweep visits the groups in index order: the grid stores its windows
color by color, so its sweep runs one color class after another. Two
backends run that one schedule: a small C kernel (``_sweep.c``), compiled
with the system ``cc`` once per source hash and loaded through ctypes when
this module is imported, and a vectorized numpy path that batches each
color class, a slice of the rows, into one step. Both
run the same floating-point operations in the same order, the row l1 sums
included (sequential, written out in both), so they give bit-identical
results. ``BACKEND`` names the one this process uses.

The kernel also skips a group whose last visit rewrote no bit of its dual
row while no residual entry on its pixels has changed bits since: that
visit would read and write the same bits. It tells so from per-call
scratch, a visit counter stamped on each residual entry whose bits change
and on each group it visits. The numpy path visits every group; the skip
leaves sweep counts, changes, dual states and foregrounds bit-identical.

Both backends accelerate the geometric tail of the sweeps with an Aitken
step. After sweep k, with r = change_k / change_{k-1}: when r < 1, at least
``_AITKEN_WAIT`` plain sweeps ran since the last step and k is not the last
sweep, every dual row that sweep k changed moves to
x + r / (1 - r) * (x - x_before), and the residual follows. Only a plain
sweep can meet the stop test, so a call never returns an extrapolated state.

A call given a ``bound`` on the primal value also stops after a plain sweep
whose residual res (the primal candidate s) satisfies P(res) <= bound and
G <= ``ETA`` * (bound - P(res)), with

    P(s) = 0.5 * ||u - s||^2 + sum_g lambda2 * max_{i in g} |s_i|,
    G    = P(res) - D(xi),   D(xi) = 0.5 * ||u||^2 - 0.5 * ||res||^2.

D is the dual objective, and xi is dual feasible after every sweep, so
D(xi) <= P* and P(res) - P* <= G: the candidate lies below the bound, and
its excess over the optimum is at most ``ETA`` times its margin below the
bound. The caller's bound is the primal value of its previous iterate, so
the call certifies descent and its accuracy follows the decrease the step
makes; when that decrease vanishes, only the ``tol`` test can stop the
call. Both backends add every sum of the test sequentially in index order,
and recompute every group's max at each test, so they stay bit-identical.

A call starts from the residual u - sum_g xi_g. A caller that carries the
dual state across calls also knows that residual and may pass it; otherwise
the kernel computes it, adding in ``np.bincount``'s order (a cold call
starts from u itself, which is that sum's value bit for bit). The kernel
reads the structure and writes nothing to it; its scratch is allocated per
call.
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

from .groups import GroupStructure, group_max

log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_sweep.c")
# No -march=native: the cached library must stay portable. No FMA
# contraction: a fused multiply-add rounds differently from numpy.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# The plain sweeps between two Aitken steps; both backends read it.
_AITKEN_WAIT = 3
# The duality-gap stop of a bounded call: the gap's share of the decrease.
# A step then keeps at least 1/(1 + ETA) of the exact step's decrease.
# 0.2 was measured against 0.01-0.3 (README, "Choosing ETA").
ETA = 0.2
# A call's budget: its stop on the largest dual change of a sweep, and its
# cap on sweeps.
PROX_TOL = 1e-8
MAX_PROX_ITERS = 200


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
    fn.argtypes = [ptr, i64, i64, ptr, ptr, i64, ptr, i64, f64, i64, f64, f64,
                   f64, i64, ptr]
    fn.restype = i64
    log.info("prox backend: C sweep kernel %s", path)
    return fn


_sweep_c = _load_kernel()
BACKEND = "c" if _sweep_c is not None else "numpy"


def _project_l1_rows(V: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise projection onto the l1 ball of one radius."""
    out = V.copy()
    A = np.abs(V)
    # a sequential sum, as _sweep.c adds: A.sum() would sum pairwise
    outside = np.cumsum(A, axis=1)[:, -1] > radius
    if not outside.any():
        return out
    Ao = A[outside]
    U = -np.sort(-Ao, axis=1)
    css = np.cumsum(U, axis=1)
    ks = np.arange(1, V.shape[1] + 1)
    rho = np.maximum((U * ks > css - radius).sum(axis=1), 1)
    theta = (css[np.arange(Ao.shape[0]), rho - 1] - radius) / rho
    out[outside] = np.sign(V[outside]) * np.maximum(Ao - theta[:, None], 0.0)
    return out


def _scatter_sum(xi: np.ndarray, g: GroupStructure) -> np.ndarray:
    return np.bincount(g.index_matrix.ravel(), weights=xi.ravel(),
                       minlength=g.p)


def structured_prox_dual(
    u: np.ndarray,
    g: GroupStructure,
    lambda2: float,
    tol: float = PROX_TOL,
    max_iters: int = MAX_PROX_ITERS,
    init: np.ndarray | None = None,
    bound: float | None = None,
    residual: np.ndarray | None = None,
):
    """Solve the structured prox; return (s, xi, sweeps, last_change).

    Cyclic block coordinate descent over the dual group variables, each block
    step an exact l1-ball projection of the current group residual. A sweep
    visits every group once, in index order; iteration stops when the largest
    single dual entry change in a sweep drops to ``tol`` or after
    ``max_iters`` sweeps. With a ``bound`` it also stops once the primal
    value is at most ``bound`` and the duality gap at most ``ETA`` times the
    margin (see the module docstring). ``s`` is the residual the sweeps kept,
    the vector that test certified. ``xi`` is the dual state, one row per
    group aligned with ``g.index_matrix``; passing a returned ``xi`` as
    ``init`` warm-starts the dual variables. ``residual``, which needs
    ``init``, must be u - sum_g init_g; the call then starts from it instead
    of summing the dual. A float64 C-contiguous writable ``init`` or
    ``residual`` is updated in place and returned as ``xi`` or ``s``.
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

    if init is None:
        if residual is not None:
            raise ValueError("a residual needs the dual state it belongs to")
        xi = np.zeros(g.index_matrix.shape)
        res = u.copy()  # u - sum_g xi_g of the zero dual, bit for bit
    else:
        xi = np.require(init, np.float64, "CW")
        if xi.shape != g.index_matrix.shape:
            raise ValueError("warm-start dual state does not match the groups")
        res = None  # the sweeps compute it
        if residual is not None:
            res = np.require(residual, np.float64, "CW")
            if res.shape != u.shape or not np.all(np.isfinite(res)):
                raise ValueError("the residual must be finite and as long as u")

    sweep = _colored_sweeps if _sweep_c is None else _c_sweeps
    res, sweeps, change = sweep(g, xi, res, u, float(lambda2), tol,
                                int(max_iters), bound)
    return res, xi, int(sweeps), float(change)


def _c_sweeps(g, xi, res, u, rad, tol, max_iters, bound):
    idx = g.index_matrix  # int64, C-contiguous, entries in [0, p)
    scatter = res is None
    if scatter:
        res = np.empty(g.p)  # the kernel sets it to u - sum_g xi_g
    change = ctypes.c_double()
    sweeps = _sweep_c(idx.ctypes.data, idx.shape[1], g.n_groups,
                      xi.ctypes.data, res.ctypes.data, scatter, u.ctypes.data,
                      g.p, rad, max_iters, tol,
                      np.nan if bound is None else bound, ETA,
                      _AITKEN_WAIT, ctypes.byref(change))
    if sweeps < 0:
        raise MemoryError("the sweep kernel could not allocate its scratch")
    return res, sweeps, change.value


def _gap_stop(g, res, u, uu, rad, bound):
    """The stop test of a bounded call, as _sweep.c's gap_stop adds it."""
    d = u - res
    gmax = group_max(np.abs(res), g)
    P = 0.5 * np.cumsum(d * d)[-1] + np.cumsum(rad * gmax)[-1]
    if not P <= bound:
        return False
    G = P - (0.5 * uu - 0.5 * np.cumsum(res * res)[-1])
    return G <= ETA * (bound - P)


def _colored_sweeps(g, xi, res, u, rad, tol, max_iters, bound):
    if res is None:
        res = u - _scatter_sum(xi, g)
    steps = [(cls, g.index_matrix[cls]) for cls in g.colors]
    change = np.inf
    sweeps = 0
    uu = None if bound is None else np.cumsum(u * u)[-1]
    # Aitken state, as in _sweep.c: the previous change, the plain sweeps
    # since the last step
    last, since = np.inf, 0
    for sweeps in range(1, max_iters + 1):
        prev = xi.copy()
        change = 0.0
        for cls, idx in steps:
            new = _project_l1_rows(res[idx] + xi[cls], rad)
            delta = new - xi[cls]
            change = max(change, float(np.abs(delta).max(initial=0.0)))
            res[idx] -= delta
            xi[cls] = new
        if change <= tol:
            break
        if bound is not None and _gap_stop(g, res, u, uu, rad, bound):
            break
        since += 1
        r = change / last if last > 0.0 else np.inf
        if since >= _AITKEN_WAIT and r < 1.0 and sweeps < max_iters:
            # the rows this sweep changed, in the kernel's visit order
            moved = (xi.view(np.int64) != prev.view(np.int64)).any(axis=1)
            rows = np.flatnonzero(moved)
            x = xi[rows]
            new = x + r / (1.0 - r) * (x - prev[rows])
            np.subtract.at(res, g.index_matrix[rows].ravel(), (new - x).ravel())
            xi[rows] = new
            since = 0
        last = change
    return res, sweeps, change

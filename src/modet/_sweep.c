/* Dual block-coordinate sweeps of the structured prox (see prox.py).
 *
 * The groups are the rows of a dense index matrix of pixels in [0, p):
 * all have one width, res has p entries, and no entry is padding.
 *
 * Visits the groups in the given color-major order and repeats, operation
 * for operation, the floating-point arithmetic of prox._colored_sweeps:
 * a sequential row l1 sum, a descending sort (insertion sort: groups are
 * small windows), a sequential cumsum and rho = #{u_k * k > css_k - rad},
 * at least 1.
 * Built with -ffp-contract=off so no multiply-add is fused; the results
 * are then bit-identical to numpy's.
 *
 * A visit reads only its group's res entries and xi row. It skips a group
 * whose last visit rewrote no bit of its xi row and none of whose res
 * entries has changed bits since: that visit would read the same bits and
 * write the same bits back, so the skip changes nothing numpy computes.
 * Bits are compared, not values, because a visit may turn +0.0 into -0.0.
 *
 * The tail of the sweeps converges geometrically, so after a sweep whose
 * change ratio r = change_k / change_{k-1} has settled (r < 1, within
 * ratio_tol of the previous ratio, at least wait sweeps since the last
 * step, and not the last sweep), the rows the sweep changed jump to the
 * limit of that geometric tail: x += r / (1 - r) * (x - prev), an Aitken
 * step. wait sweeps after a step, a change above the change at the step
 * disables the steps for the rest of the call. A call stops only after a
 * plain sweep, so it never returns an extrapolated state.
 *
 * A bounded call (bound not NaN) also stops after a plain sweep whose
 * residual res, the primal candidate, has P(res) <= bound and a duality
 * gap G <= eta * (bound - P), where
 *   P = 0.5 * sum_i (u_i - res_i)^2 + sum_g radii[g] * max_{i in g} |res_i|,
 *   G = P - (0.5 * sum_i u_i^2 - 0.5 * sum_i res_i^2).
 * The second term of G is the dual objective at xi, which is feasible, so
 * G >= P(res) - P* >= 0: the candidate is below the bound, and its excess
 * over the optimum P* is at most eta times its margin below the bound.
 * Each group's max is cached and recomputed only when put() has flagged it
 * stale since the last test.
 * prox._colored_sweeps repeats all of this operation for operation, the
 * sums of the test included (sequential, in index order).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static int same_bits(double a, double b)
{
    return memcmp(&a, &b, sizeof a) == 0;
}

/* Writes nw into *x and moves res[i] by the difference; flags group g dirty
 * and, when res[i] changes bits, every group on pixel i dirty and stale.
 * Returns |nw - *x|. When nw has *x's bits nothing is written: the
 * difference is +0.0, and res -= +0.0 changes no bit. */
static double put(double *x, double nw, double *res, int64_t i, int64_t g,
                  const int64_t *ptr, const int64_t *grp, int8_t *dirty,
                  int8_t *stale)
{
    if (same_bits(nw, *x)) return 0.0;
    dirty[g] = 1;
    double d = nw - *x, r = res[i] - d;
    if (!same_bits(r, res[i])) {
        res[i] = r;
        for (int64_t k = ptr[i]; k < ptr[i + 1]; k++)
            dirty[grp[k]] = stale[grp[k]] = 1;
    }
    *x = nw;
    return fabs(d);
}

/* The stop test of a bounded call at the current residual (see the top of
 * this file); uu is sum_i u_i^2. Recomputes the cached max gmax[g] of each
 * group flagged stale and clears its flag. */
static int gap_stop(const int64_t *idx, int64_t width, int64_t n_groups,
                    const double *res, const double *u, int64_t p,
                    const double *radii, double uu, double bound, double eta,
                    double *gmax, int8_t *stale)
{
    double dd = 0.0, rr = 0.0, om = 0.0;
    for (int64_t i = 0; i < p; i++) {
        double d = u[i] - res[i];
        dd += d * d;
        rr += res[i] * res[i];
    }
    for (int64_t g = 0; g < n_groups; g++) {
        if (stale[g]) {
            const int64_t *ix = idx + g * width;
            double m = 0.0;
            for (int64_t j = 0; j < width; j++) {
                double a = fabs(res[ix[j]]);
                m = a > m ? a : m;
            }
            gmax[g] = m;
            stale[g] = 0;
        }
        om += radii[g] * gmax[g];
    }
    double P = 0.5 * dd + om;
    double G = P - (0.5 * uu - 0.5 * rr);
    return P <= bound && G <= eta * (bound - P);
}

/* Sweeps until the largest dual change of a sweep is <= tol, a bounded
 * call's gap test holds or max_sweeps ran; returns the sweeps run and
 * stores the last sweep's change, or returns -1 when the scratch cannot be
 * allocated. idx and xi are (n_order, width) row-major, order lists every
 * group once, and u is the prox input (read only by the gap test). A NaN
 * bound skips the gap test. wait and ratio_tol are the Aitken step's
 * constants.
 * The groups of one color are disjoint, so visiting them one at a time
 * gives what numpy's batched step over the color gives. */
int64_t dual_sweeps(const int64_t *idx, int64_t width, const int64_t *order,
                    int64_t n_order, double *xi, double *res, const double *u,
                    int64_t p, const double *radii, int64_t max_sweeps,
                    double tol, double bound, double eta, int64_t wait,
                    double ratio_tol, double *change_out)
{
    int64_t n = n_order * width;
    /* the visit's 4 work rows; each changed row's pre-sweep copy (prev);
     * each group's cached max for the gap test; the pixel -> group CSR
     * (the groups on pixel i are grp[ptr[i] .. ptr[i + 1]]); the changed
     * groups; and per group a dirty flag and a stale-max flag */
    double *work = malloc((size_t)(4 * width + n + n_order) * sizeof(double)
                          + (size_t)(p + 2 + n + n_order) * sizeof(int64_t)
                          + (size_t)(2 * n_order));
    if (!work) return -1;
    double *v = work, *a = work + width, *srt = work + 2 * width;
    double *cs = work + 3 * width, *prev = work + 4 * width;
    double *gmax = prev + n;
    int64_t *ptr = (int64_t *)(gmax + n_order), *grp = ptr + p + 2;
    int64_t *changed = grp + n;
    int8_t *dirty = (int8_t *)(changed + n_order), *stale = dirty + n_order;
    /* CSR: count pixel i at ptr[i + 2], prefix-sum, then fill through
     * ptr[i + 1], which leaves ptr[i] at pixel i's start */
    memset(ptr, 0, (size_t)(p + 2) * sizeof *ptr);
    for (int64_t e = 0; e < n; e++) ptr[idx[e] + 2]++;
    for (int64_t i = 2; i < p + 2; i++) ptr[i] += ptr[i - 1];
    for (int64_t e = 0; e < n; e++) grp[ptr[idx[e] + 1]++] = e / width;
    memset(dirty, 1, (size_t)(2 * n_order)); /* and stale */
    int bounded = !isnan(bound);
    double uu = 0.0;
    if (bounded)
        for (int64_t i = 0; i < p; i++) uu += u[i] * u[i];

    /* Aitken state: the previous change and ratio, the sweeps since the
     * last step, the change at that step (-1 before the first) */
    double change = INFINITY, last = INFINITY, ratio = 0.0, at_step = -1.0;
    int64_t sweeps = 0, since = 0, n_changed;
    int steps_on = 1;
    while (sweeps < max_sweeps) {
        sweeps++;
        change = 0.0;
        n_changed = 0;
        for (const int64_t *o = order; o < order + n_order; o++) {
            int64_t g = *o;
            if (!dirty[g]) continue;
            dirty[g] = 0;
            const int64_t *ix = idx + g * width;
            double *x = xi + g * width, rad = radii[g], theta = 0.0, l1 = 0.0;
            for (int64_t j = 0; j < width; j++) {
                v[j] = res[ix[j]] + x[j];
                a[j] = fabs(v[j]);
                l1 += a[j];
            }
            int outside = rad != 0.0 && l1 > rad;
            if (outside) {
                for (int64_t j = 0; j < width; j++) { /* insertion sort */
                    int64_t k = j;
                    for (; k > 0 && srt[k - 1] < a[j]; k--)
                        srt[k] = srt[k - 1];
                    srt[k] = a[j];
                }
                int64_t rho = 0;
                for (int64_t j = 0; j < width; j++) {
                    cs[j] = j ? cs[j - 1] + srt[j] : srt[j];
                    rho += srt[j] * (double)(j + 1) > cs[j] - rad;
                }
                if (rho == 0) rho = 1;
                theta = (cs[rho - 1] - rad) / (double)rho;
            }
            int saved = 0;
            for (int64_t j = 0; j < width; j++) {
                double nw = v[j];
                if (rad == 0.0) {
                    nw = 0.0;
                } else if (outside) {
                    double m = a[j] - theta;
                    double sg = v[j] > 0.0 ? 1.0 : (v[j] < 0.0 ? -1.0 : 0.0);
                    nw = sg * (m > 0.0 ? m : 0.0);
                }
                if (!saved && !same_bits(nw, x[j])) {
                    /* entries before j are unchanged: the pre-visit row */
                    memcpy(prev + g * width, x, (size_t)width * sizeof *x);
                    changed[n_changed++] = g;
                    saved = 1;
                }
                double d = put(x + j, nw, res, ix[j], g, ptr, grp, dirty,
                               stale);
                if (d > change) change = d;
            }
        }
        if (change <= tol) break;
        if (bounded && gap_stop(idx, width, n_order, res, u, p, radii, uu,
                                bound, eta, gmax, stale))
            break;
        since++;
        double r = last > 0.0 ? change / last : INFINITY;
        if (since == wait && at_step >= 0.0 && change > at_step) steps_on = 0;
        if (steps_on && since >= wait && r < 1.0
            && fabs(r - ratio) < ratio_tol * r && sweeps < max_sweeps) {
            double c = r / (1.0 - r);
            for (int64_t l = 0; l < n_changed; l++) {
                int64_t g = changed[l];
                double *x = xi + g * width;
                const double *x0 = prev + g * width;
                for (int64_t j = 0; j < width; j++)
                    put(x + j, x[j] + c * (x[j] - x0[j]), res,
                        idx[g * width + j], g, ptr, grp, dirty, stale);
            }
            since = 0;
            at_step = change;
        }
        last = change;
        ratio = r;
    }
    free(work);
    *change_out = change;
    return sweeps;
}

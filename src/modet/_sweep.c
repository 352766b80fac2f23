/* Dual block-coordinate sweeps of the structured prox (see prox.py).
 *
 * The groups are the rows of a dense index matrix of pixels in [0, p):
 * all have one width, res has p entries, and no entry is padding.
 *
 * A call given scatter != 0 first sets res = u - sum_g xi_g, adding the xi
 * entries into a zeroed res in index-matrix order, as np.bincount adds
 * them; with scatter == 0 the caller has set res to that residual. It then
 * visits the groups in index order and repeats, operation for operation,
 * the floating-point arithmetic of prox._colored_sweeps:
 * a sequential row l1 sum, a descending sort (insertion sort: groups are
 * small windows), a sequential cumsum and rho = #{u_k * k > css_k - rad},
 * at least 1 (rad, every group's l1-ball radius, is the prox's lambda2).
 * Built with -ffp-contract=off so no multiply-add is fused; the results
 * are then bit-identical to numpy's.
 *
 * A visit reads only its group's res entries and xi row. It skips a group
 * whose last visit rewrote no bit of its xi row and none of whose res
 * entries has changed bits since: that visit would read the same bits and
 * write the same bits back, so the skip changes nothing numpy computes.
 * Bits are compared, not values, because a visit may turn +0.0 into -0.0.
 * The state for this lives in the call's scratch: a counter, tick, that
 * advances at every group and at every Aitken step; each res entry's tick
 * of its last bit change (stamp); and each group's tick of its last visit
 * (seen) and whether that visit changed a bit of its row (dirty).
 *
 * After a plain sweep whose change ratio r = change_k / change_{k-1} is
 * below 1, at least wait plain sweeps since the last step and not the last
 * sweep, the rows the sweep changed jump to the limit of that geometric
 * tail: x += r / (1 - r) * (x - prev), an Aitken step. A call stops only
 * after a plain sweep, so it never returns an extrapolated state.
 *
 * A bounded call (bound not NaN) also stops after a plain sweep whose
 * residual res, the primal candidate, has P(res) <= bound and a duality
 * gap G <= eta * (bound - P), where
 *   P = 0.5 * sum_i (u_i - res_i)^2 + sum_g rad * max_{i in g} |res_i|,
 *   G = P - (0.5 * sum_i u_i^2 - 0.5 * sum_i res_i^2).
 * The second term of G is the dual objective at xi, which is feasible, so
 * G >= P(res) - P* >= 0: the candidate is below the bound, and its excess
 * over the optimum P* is at most eta times its margin below the bound.
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

/* Writes nw into *x and moves res[i] by the difference, stamping res[i]
 * with tick when its bits change; returns |nw - *x|. When nw has *x's bits
 * the difference is +0.0, and res -= +0.0 changes no bit. */
static double put(double *x, double nw, double *res, int64_t i,
                  int64_t *stamp, int64_t tick)
{
    double d = nw - *x, r = res[i] - d;
    if (!same_bits(r, res[i])) stamp[i] = tick;
    res[i] = r;
    *x = nw;
    return fabs(d);
}

/* The stop test of a bounded call at the current residual (see the top of
 * this file); uu is sum_i u_i^2. */
static int gap_stop(const int64_t *idx, int64_t width, int64_t n_groups,
                    const double *res, const double *u, int64_t p,
                    double rad, double uu, double bound, double eta)
{
    double dd = 0.0, rr = 0.0, om = 0.0;
    for (int64_t i = 0; i < p; i++) {
        double d = u[i] - res[i];
        dd += d * d;
        rr += res[i] * res[i];
    }
    for (int64_t g = 0; g < n_groups; g++) {
        const int64_t *ix = idx + g * width;
        double m = 0.0;
        for (int64_t j = 0; j < width; j++) {
            double a = fabs(res[ix[j]]);
            m = a > m ? a : m;
        }
        om += rad * m;
    }
    double P = 0.5 * dd + om;
    if (!(P <= bound)) return 0;
    double G = P - (0.5 * uu - 0.5 * rr);
    return G <= eta * (bound - P);
}

/* Sets res = u - sum_g xi_g when scatter is nonzero, then sweeps until the largest dual change of a
 * sweep is <= tol, a bounded call's stop test holds or max_sweeps ran;
 * returns the sweeps run and stores the last sweep's change, or returns -1
 * when the scratch cannot be allocated. idx and xi are (n_groups, width)
 * row-major, and u is the prox input. A NaN bound skips the stop test.
 * wait is the Aitken step's constant.
 * The groups of one color class, a run of rows, are disjoint, so visiting
 * them one at a time gives what numpy's batched step over the class gives. */
int64_t dual_sweeps(const int64_t *idx, int64_t width, int64_t n_groups,
                    double *xi, double *res, int64_t scatter,
                    const double *u, int64_t p, double rad,
                    int64_t max_sweeps, double tol, double bound,
                    double eta, int64_t wait, double *change_out)
{
    int64_t n = n_groups * width;
    /* the visit's 4 work rows; each changed row's pre-sweep copy (prev);
     * the skip's seen, stamp and dirty (see the top of this file) */
    double *work = malloc((size_t)(4 * width + n) * sizeof(double)
                          + (size_t)(n_groups + p) * sizeof(int64_t)
                          + (size_t)n_groups);
    if (!work) return -1;
    double *v = work, *a = work + width, *srt = work + 2 * width;
    double *cs = work + 3 * width, *prev = work + 4 * width;
    int64_t *seen = (int64_t *)(prev + n), *stamp = seen + n_groups;
    uint8_t *dirty = (uint8_t *)(stamp + p);
    /* every group is visited in the first sweep, which sets its seen */
    memset(dirty, 1, (size_t)n_groups);
    memset(stamp, 0, (size_t)p * sizeof *stamp);
    if (scatter) {
        memset(res, 0, (size_t)p * sizeof *res);
        for (int64_t e = 0; e < n; e++) res[idx[e]] += xi[e];
        for (int64_t i = 0; i < p; i++) res[i] = u[i] - res[i];
    }
    int bounded = !isnan(bound);
    double uu = 0.0;
    if (bounded)
        for (int64_t i = 0; i < p; i++) uu += u[i] * u[i];

    /* Aitken state: the previous change, the plain sweeps since the last
     * step */
    double change = INFINITY, last = INFINITY;
    int64_t sweeps = 0, since = 0, tick = 0;
    while (sweeps < max_sweeps) {
        sweeps++;
        change = 0.0;
        for (int64_t g = 0; g < n_groups; g++) {
            tick++;
            const int64_t *ix = idx + g * width;
            if (!dirty[g]) {
                int64_t j = 0;
                while (j < width && stamp[ix[j]] < seen[g]) j++;
                if (j == width) continue;
            }
            seen[g] = tick;
            dirty[g] = 0;
            double *x = xi + g * width, theta = 0.0, l1 = 0.0;
            for (int64_t j = 0; j < width; j++) {
                v[j] = res[ix[j]] + x[j];
                a[j] = fabs(v[j]);
                l1 += a[j];
            }
            int outside = l1 > rad;
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
            for (int64_t j = 0; j < width; j++) {
                double nw = v[j];
                if (outside) {
                    double m = a[j] - theta;
                    double sg = v[j] > 0.0 ? 1.0 : (v[j] < 0.0 ? -1.0 : 0.0);
                    nw = sg * (m > 0.0 ? m : 0.0);
                }
                if (!dirty[g] && !same_bits(nw, x[j])) {
                    /* entries before j are unchanged: the pre-visit row */
                    memcpy(prev + g * width, x, (size_t)width * sizeof *x);
                    dirty[g] = 1;
                }
                double d = put(x + j, nw, res, ix[j], stamp, tick);
                if (d > change) change = d;
            }
        }
        if (change <= tol) break;
        if (bounded && gap_stop(idx, width, n_groups, res, u, p, rad, uu,
                                bound, eta))
            break;
        since++;
        double r = last > 0.0 ? change / last : INFINITY;
        if (since >= wait && r < 1.0 && sweeps < max_sweeps) {
            double c = r / (1.0 - r);
            tick++;
            /* the rows this sweep changed, in visit order: after a plain
             * sweep a group is dirty exactly when its visit changed it */
            for (int64_t g = 0; g < n_groups; g++) {
                if (!dirty[g]) continue;
                double *x = xi + g * width;
                const double *x0 = prev + g * width;
                for (int64_t j = 0; j < width; j++)
                    put(x + j, x[j] + c * (x[j] - x0[j]), res,
                        idx[g * width + j], stamp, tick);
            }
            since = 0;
        }
        last = change;
    }
    free(work);
    *change_out = change;
    return sweeps;
}

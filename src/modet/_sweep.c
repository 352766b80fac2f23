/* Dual block-coordinate sweeps of the structured prox (see prox.py).
 *
 * Visits the groups in the given color-major order and repeats, operation
 * for operation, the floating-point arithmetic of prox._colored_sweeps:
 * numpy's pairwise row sum, a descending sort (insertion sort: groups
 * are small windows), a sequential cumsum and rho = #{u_k * k > css_k -
 * rad}. Built with -ffp-contract=off so no multiply-add is fused; the
 * results are then bit-identical to numpy's.
 *
 * A visit reads only its group's res entries and xi row. It skips a group
 * whose last visit rewrote no bit of its xi row and none of whose res
 * entries has changed bits since: that visit would read the same bits and
 * write the same bits back, so the skip changes nothing numpy computes.
 * Bits are compared, not values, because a visit may turn +0.0 into -0.0.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* np.add.reduce's order for float64: 8 partial sums, then the tail. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < n; i++) s += a[i];
        return s;
    }
    if (n <= 128) {
        double r[8];
        int64_t i, j;
        for (j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++) r[j] += a[i + j];
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) s += a[i];
        return s;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static int same_bits(double a, double b)
{
    return memcmp(&a, &b, sizeof a) == 0;
}

/* Sweeps until the largest dual change of a sweep is <= tol or max_sweeps
 * ran; returns the sweeps run and stores the last sweep's change. idx and
 * xi are (n_order, width) row-major and order lists every group once;
 * padded entries of idx point at res[pad], which must read 0. work holds
 * 4*width doubles. iwork holds pad + 2 + n_order*width int64: the groups
 * covering pixel i are grp[ptr[i] .. ptr[i+1]], with ptr = iwork and
 * grp = iwork + pad + 2 (the range of pixel pad is empty). dirty holds
 * one flag per group. The groups of one color are disjoint, so visiting
 * them one at a time gives what numpy's batched step over the color
 * gives. */
int64_t dual_sweeps(const int64_t *idx, int64_t width, const int64_t *order,
                    int64_t n_order, double *xi, double *res, int64_t pad,
                    const double *radii, int64_t max_sweeps, double tol,
                    double *work, int64_t *iwork, int8_t *dirty,
                    double *change_out)
{
    double *v = work, *a = work + width, *u = work + 2 * width, *cs = work + 3 * width;
    int64_t *ptr = iwork, *grp = iwork + pad + 2, n = n_order * width;
    /* pixel -> group CSR: count pixel i at ptr[i + 2], prefix-sum, then
     * fill through ptr[i + 1], which leaves ptr[i] at pixel i's start */
    memset(ptr, 0, (size_t)(pad + 2) * sizeof *ptr);
    for (int64_t e = 0; e < n; e++)
        if (idx[e] != pad) ptr[idx[e] + 2]++;
    for (int64_t i = 2; i < pad + 2; i++) ptr[i] += ptr[i - 1];
    for (int64_t e = 0; e < n; e++)
        if (idx[e] != pad) grp[ptr[idx[e] + 1]++] = e / width;
    memset(dirty, 1, (size_t)n_order);

    double change = INFINITY;
    int64_t sweeps = 0;
    while (sweeps < max_sweeps) {
        sweeps++;
        change = 0.0;
        for (int64_t o = 0; o < n_order; o++) {
            int64_t g = order[o];
            if (!dirty[g]) continue;
            dirty[g] = 0;
            const int64_t *ix = idx + g * width;
            double *x = xi + g * width, rad = radii[g], theta = 0.0;
            for (int64_t j = 0; j < width; j++) {
                v[j] = res[ix[j]] + x[j];
                a[j] = fabs(v[j]);
            }
            int outside = rad != 0.0 && pairwise_sum(a, width) > rad;
            if (outside) {
                for (int64_t j = 0; j < width; j++) { /* insertion sort */
                    int64_t k = j;
                    for (; k > 0 && u[k - 1] < a[j]; k--) u[k] = u[k - 1];
                    u[k] = a[j];
                }
                int64_t rho = 0;
                for (int64_t j = 0; j < width; j++) {
                    cs[j] = j ? cs[j - 1] + u[j] : u[j];
                    rho += u[j] * (double)(j + 1) > cs[j] - rad;
                }
                /* numpy indexes css[rho - 1], which wraps to the end at 0 */
                theta = (cs[rho ? rho - 1 : width - 1] - rad) / (double)rho;
            }
            for (int64_t j = 0; j < width; j++) {
                double nw = v[j];
                if (rad == 0.0) {
                    nw = 0.0;
                } else if (outside) {
                    double m = a[j] - theta;
                    double sg = v[j] > 0.0 ? 1.0 : (v[j] < 0.0 ? -1.0 : 0.0);
                    nw = sg * (m > 0.0 ? m : 0.0);
                }
                /* same bits: d is +0.0, and res -= +0.0 changes no bit */
                if (same_bits(nw, x[j])) continue;
                dirty[g] = 1;
                double d = nw - x[j], r = res[ix[j]] - d;
                if (fabs(d) > change) change = fabs(d);
                if (!same_bits(r, res[ix[j]])) {
                    res[ix[j]] = r;
                    for (int64_t k = ptr[ix[j]]; k < ptr[ix[j] + 1]; k++)
                        dirty[grp[k]] = 1;
                }
                x[j] = nw;
            }
            res[pad] = 0.0;
        }
        if (change <= tol) break;
    }
    *change_out = change;
    return sweeps;
}

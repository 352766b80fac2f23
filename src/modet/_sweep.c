/* Dual block-coordinate sweeps of the structured prox (see prox.py).
 *
 * Visits the groups in the given color-major order and repeats, operation
 * for operation, the floating-point arithmetic of prox._colored_sweeps:
 * numpy's pairwise row sum, a descending sort (insertion sort: groups
 * are small windows), a sequential cumsum and rho = #{u_k * k > css_k -
 * rad}. Built with -ffp-contract=off so no multiply-add is fused; the
 * results are then bit-identical to numpy's.
 */
#include <math.h>
#include <stdint.h>

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

/* Sweeps until the largest dual change of a sweep is <= tol or max_sweeps
 * ran; returns the sweeps run and stores the last sweep's change. idx and
 * xi are (n_groups, width) row-major; padded entries of idx point at
 * res[pad], which must read 0. work holds 4*width doubles. The groups of
 * one color are disjoint, so visiting them one at a time gives what
 * numpy's batched step over the color gives. */
int64_t dual_sweeps(const int64_t *idx, int64_t width, const int64_t *order,
                    int64_t n_order, double *xi, double *res, int64_t pad,
                    const double *radii, int64_t max_sweeps, double tol,
                    double *work, double *change_out)
{
    double *v = work, *a = work + width, *u = work + 2 * width, *cs = work + 3 * width;
    double change = INFINITY;
    int64_t sweeps = 0;
    while (sweeps < max_sweeps) {
        sweeps++;
        change = 0.0;
        for (int64_t o = 0; o < n_order; o++) {
            int64_t g = order[o];
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
                double d = nw - x[j];
                if (fabs(d) > change) change = fabs(d);
                res[ix[j]] -= d;
                x[j] = nw;
            }
            res[pad] = 0.0;
        }
        if (change <= tol) break;
    }
    *change_out = change;
    return sweeps;
}

/* Fused elementwise kernels for the Young-Boris chemistry fast path.
 *
 * Compiled on demand by repro.chemistry.cfused (plain `cc -O3 -shared`,
 * no Python headers needed) and called through ctypes.  Every routine
 * fuses a chain of numpy ufunc calls into a single pass while keeping
 * the per-element IEEE-754 operation sequence IDENTICAL to the numpy
 * code it replaces, so results are bitwise equal:
 *
 *   - each intermediate is rounded exactly once, in the same order the
 *     numpy expression tree rounds it (the build flags disable FMA
 *     contraction and fast-math so the compiler cannot re-associate);
 *   - numpy's `maximum` semantics are replicated literally as
 *     `(a > b || isnan(a)) ? a : b` (second operand wins ties, NaN
 *     propagates from either side);
 *   - comparisons against NaN are false, matching `np.greater`.
 *
 * Only elementwise work lives here.  The (n_species, n_reactions) @
 * (n_reactions, m) matmuls stay in numpy/BLAS: dgemm results depend on
 * operand width and column position, so they must be fed the exact
 * same matrices as the reference implementation.
 *
 * Every kernel works on the columns [col0, col1) of an (ns, m)
 * row-major block; the sequential run is the single span (0, m).
 * Because every operation here is elementwise per column, partitioning
 * the column axis into contiguous tiles and running the tiles on pool
 * threads cannot change any result bit: each element is computed from
 * the same inputs by the same instruction sequence, and tiles write
 * disjoint column ranges of the shared workspaces.  ctypes calls
 * release the GIL, so tiles genuinely overlap on multi-core hosts.
 */

#include <math.h>
#include <stdint.h>

/* numpy maximum: second operand wins ties, NaN propagates. */
static double np_max(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

/* rates[j,p] = (k[j] * conc[r1[j],p]) * conc[r2[j],p]   (bimolecular)
 *            =  k[j] * conc[r1[j],p]                    (r2[j] < 0)
 *
 * Fuses: take(conc, r1) -> * k[:,None] -> take(conc, r2) -> * fac.
 * Multiplying unimolecular rows by 1.0 is an exact identity, so the
 * branch form matches the reference's masked multiply bit for bit. */
void yb_build_rates(int64_t nr, int64_t m, int64_t col0, int64_t col1,
                    const double *k, const int64_t *r1, const int64_t *r2,
                    const double *conc, double *rates)
{
    int64_t j, p;
    for (j = 0; j < nr; ++j) {
        const double kj = k[j];
        const double *a = conc + r1[j] * m;
        double *out = rates + j * m;
        if (r2[j] >= 0) {
            const double *b = conc + r2[j] * m;
            for (p = col0; p < col1; ++p)
                out[p] = (kj * a[p]) * b[p];
        } else {
            for (p = col0; p < col1; ++p)
                out[p] = kj * a[p];
        }
    }
}

/* L[i,p] = L[i,p] / max(conc[i,p], 1e-30).
 * Fuses: maximum(conc, 1e-30, out=t); divide(L, t, out=L). */
void yb_pl_finish(int64_t ns, int64_t m, int64_t col0, int64_t col1,
                  const double *conc, double *L)
{
    int64_t i, p;
    for (i = 0; i < ns; ++i) {
        const int64_t off = i * m;
        for (p = col0; p < col1; ++p)
            L[off + p] = L[off + p] / np_max(conc[off + p], 1e-30);
    }
}

/* Predictor stage.
 *
 *   P0 += E                      (when E is non-NULL)
 *   Lh  = L0 * h[col]
 *   R0  = P0 - L0 * c0
 *   cp  = c0 + R0 * h[col]
 *   stiff (Lh > thresh): record flat index, leave cp un-floored (the
 *       caller scatters the floored asymptotic update over it);
 *   else: cp = max(cp, floor).
 *
 * Returns the number of stiff elements written to the caller-offset
 * stiff_idx: GLOBAL row-major flat indices (i*m + p) in (row, column)
 * order, ascending within the span.  For the single span (0, m) that
 * is the order np.flatnonzero produces; for several spans the Python
 * caller concatenates the per-span lists and sorts, reproducing the
 * same full-width ascending enumeration. */
int64_t yb_predictor(int64_t ns, int64_t m, int64_t col0, int64_t col1,
                     double *P0, double *L0, const double *c0,
                     const double *h, const double *E,
                     double thresh, double floor_, int64_t divide,
                     double *Lh, double *R0, double *cp,
                     int64_t *stiff_idx)
{
    int64_t cnt = 0, i, p;
    for (i = 0; i < ns; ++i) {
        const int64_t off = i * m;
        for (p = col0; p < col1; ++p) {
            const int64_t q = off + p;
            double P = P0[q];
            double l = L0[q];
            if (E) {
                P = P + E[q];
                P0[q] = P;
            }
            if (divide) {
                /* Deferred yb_pl_finish: L0 still holds the raw loss
                 * rate; same per-element ops, one fewer full pass. */
                l = l / np_max(c0[q], 1e-30);
                L0[q] = l;
            }
            {
                const double lh = l * h[p];
                const double lc = l * c0[q];
                const double r = P - lc;
                const double rh = r * h[p];
                const double v = c0[q] + rh;
                Lh[q] = lh;
                R0[q] = r;
                if (lh > thresh) {
                    stiff_idx[cnt++] = q;
                    cp[q] = v;
                } else {
                    cp[q] = np_max(v, floor_);
                }
            }
        }
    }
    return cnt;
}

/* Corrector stage (stiff indices as in yb_predictor).
 *
 *   P1 += E                         (when E is non-NULL)
 *   Lm  = (L0 + L1) * 0.5
 *   Lmh = Lm * h[col]
 *   c1  = c0 + ((R0 + (P1 - L1*cp)) * (0.5 * h[col]))
 *   stiff (Lmh > thresh): record flat index, leave c1 un-floored;
 *   else: c1 = max(c1, floor).
 */
int64_t yb_corrector(int64_t ns, int64_t m, int64_t col0, int64_t col1,
                     double *P1, const double *L0, double *L1,
                     const double *R0, const double *cp, const double *c0,
                     const double *h, const double *E,
                     double thresh, double floor_, int64_t divide,
                     double *Lm, double *Lmh, double *c1,
                     int64_t *stiff_idx)
{
    int64_t cnt = 0, i, p;
    for (i = 0; i < ns; ++i) {
        const int64_t off = i * m;
        for (p = col0; p < col1; ++p) {
            const int64_t q = off + p;
            double P = P1[q];
            double l1v = L1[q];
            if (E) {
                P = P + E[q];
                P1[q] = P;
            }
            if (divide) {
                /* Deferred yb_pl_finish for the corrector evaluation:
                 * the divisor is the predicted state cp. */
                l1v = l1v / np_max(cp[q], 1e-30);
                L1[q] = l1v;
            }
            {
                const double lsum = L0[q] + l1v;
                const double lm = lsum * 0.5;
                const double lmh = lm * h[p];
                const double t1 = l1v * cp[q];
                const double t2 = P - t1;
                const double t3 = R0[q] + t2;
                const double hh = 0.5 * h[p];
                const double t4 = t3 * hh;
                const double v = c0[q] + t4;
                Lm[q] = lm;
                Lmh[q] = lmh;
                if (lmh > thresh) {
                    stiff_idx[cnt++] = q;
                    c1[q] = v;
                } else {
                    c1[q] = np_max(v, floor_);
                }
            }
        }
    }
    return cnt;
}

/* Active-column data movement.
 *
 * Each adaptive iteration gathers the still-active columns into the
 * contiguous workspace and scatters the accepted ones back; with the
 * batched ensemble engine's hundreds of thousands of columns those two
 * moves become a measurable share of the sweep, so they get fused C
 * loops.  Both are pure data movement — bitwise exactness is trivial.
 */

/* dst[i, p] = src[i, idx[p]] over an (ns, ncols) C-order source: the
 * active-column gather, np.take(src, idx, axis=1) fused into one pass. */
void yb_gather_cols(int64_t ns, int64_t ncols, int64_t m,
                    int64_t col0, int64_t col1,
                    const double *src, const int64_t *idx, double *dst)
{
    int64_t i, p;
    for (i = 0; i < ns; ++i) {
        const double *row = src + i * ncols;
        double *out = dst + i * m;
        for (p = col0; p < col1; ++p)
            out[p] = row[idx[p]];
    }
}

/* dst[:, idx[p]] = src[:, p] for every column with ok[p] != 0: the
 * accepted-substep scatter dst[:, idx[ok]] = src[:, ok].  idx is
 * strictly ascending (active-column indices), so tiles write disjoint
 * destination columns. */
void yb_scatter_cols(int64_t ns, int64_t ncols, int64_t m,
                     int64_t col0, int64_t col1,
                     const double *src, const int64_t *idx,
                     const unsigned char *ok, double *dst)
{
    int64_t i, p;
    for (i = 0; i < ns; ++i) {
        const double *row = src + i * m;
        double *out = dst + i * ncols;
        for (p = col0; p < col1; ++p)
            if (ok[p])
                out[idx[p]] = row[p];
    }
}

/* err[p] = max_i |c1 - cp| / max(max(c1, cp), 1e-7)
 *
 * Fuses the convergence test's five full-width passes plus the axis-0
 * max reduction.  `max` is associative and the ratios are never -0.0
 * (fabs numerator, positive denominator), so the row-by-row reduction
 * order matches numpy's maximum.reduce bit for bit. */
void yb_errmax(int64_t ns, int64_t m, int64_t col0, int64_t col1,
               const double *c1, const double *cp, double *err)
{
    int64_t i, p;
    for (p = col0; p < col1; ++p) {
        const double d = fabs(c1[p] - cp[p]);
        const double den = np_max(np_max(c1[p], cp[p]), 1e-7);
        err[p] = d / den;
    }
    for (i = 1; i < ns; ++i) {
        const double *a = c1 + i * m;
        const double *b = cp + i * m;
        for (p = col0; p < col1; ++p) {
            const double d = fabs(a[p] - b[p]);
            const double den = np_max(np_max(a[p], b[p]), 1e-7);
            const double r = d / den;
            err[p] = np_max(err[p], r);
        }
    }
}

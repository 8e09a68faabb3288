/* Exact CART split search at one node, bit for bit equal to the numpy
 * reference ``forest._best_split``.
 *
 * For each candidate column, in ``cand`` order, the node's (x, y) pairs are
 * gathered from a column-major copy of X, stably merge-sorted by x, and
 * every position between two distinct x values is scored with the numpy
 * expression in the numpy operation order:
 *
 *     (lq - ls * ls / nl) + ((tq - lq) - (ts - ls) * (ts - ls) / nr)
 *
 * where ls and lq are the running sums of y and y * y, added one row at a
 * time as ``np.cumsum`` does, and ts and tq their totals over the node.
 * The first strict minimum wins: lowest candidate column, then lowest
 * position.  Build with -ffp-contract=off so that no multiply-add is fused.
 *
 * The function touches no Python object, so it runs with the interpreter
 * lock released; each caller passes its own ``pairs`` and ``tmp`` buffers
 * of at least ``m`` pairs (2 * m doubles) each.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double x;
    double y;
} pair;

#define RUN 16

static void insertion_sort(pair *a, int64_t m)
{
    for (int64_t i = 1; i < m; i++) {
        pair v = a[i];
        int64_t j = i;
        while (j > 0 && v.x < a[j - 1].x) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = v;
    }
}

/* Stable sort of a[0..m) by x; returns whichever of a and tmp holds it. */
static pair *sort_pairs(pair *a, pair *tmp, int64_t m)
{
    for (int64_t lo = 0; lo < m; lo += RUN)
        insertion_sort(a + lo, m - lo < RUN ? m - lo : RUN);
    pair *src = a, *dst = tmp;
    for (int64_t width = RUN; width < m; width *= 2) {
        for (int64_t lo = 0; lo < m; lo += 2 * width) {
            int64_t mid = lo + width < m ? lo + width : m;
            int64_t hi = lo + 2 * width < m ? lo + 2 * width : m;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = src[j].x < src[i].x ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        pair *t = src;
        src = dst;
        dst = t;
    }
    return src;
}

/* Returns the index into ``cand`` of the winning column, or -1 when no
 * candidate separates the rows (or the best score is not finite).  On a
 * win, ``*pos_out`` is the sorted position of the last row that goes left
 * and ``out`` holds the best score, the x values at ``pos`` and ``pos + 1``,
 * and the winning column's total sum and sum of squares of y. */
int64_t kp_best_split(const double *xc, int64_t n, const double *y,
                      const int64_t *rows, int64_t m,
                      const int64_t *cand, int64_t k,
                      double *pairs, double *tmp,
                      int64_t *pos_out, double *out)
{
    double best = INFINITY;
    int64_t best_j = -1, best_pos = -1;
    int nan_seen = 0;
    const double nm = (double)m;

    for (int64_t j = 0; j < k; j++) {
        const double *col = xc + cand[j] * n;
        pair *p = (pair *)pairs;
        for (int64_t i = 0; i < m; i++) {
            p[i].x = col[rows[i]];
            p[i].y = y[rows[i]];
        }
        p = sort_pairs(p, (pair *)tmp, m);

        double ts = p[0].y, tq = p[0].y * p[0].y;
        for (int64_t i = 1; i < m; i++) {
            ts = ts + p[i].y;
            tq = tq + p[i].y * p[i].y;
        }

        double ls = p[0].y, lq = p[0].y * p[0].y;
        for (int64_t i = 0; i < m - 1; i++) {
            if (p[i + 1].x != p[i].x) {
                const double nl = (double)(i + 1);
                const double nr = nm - nl;
                const double rs = ts - ls;
                const double score = (lq - ls * ls / nl) + ((tq - lq) - rs * rs / nr);
                if (score < best) {
                    best = score;
                    best_j = j;
                    best_pos = i;
                } else if (score != score) {
                    nan_seen = 1;
                }
            }
            ls = ls + p[i + 1].y;
            lq = lq + p[i + 1].y * p[i + 1].y;
        }
        if (best_j == j) {
            out[1] = p[best_pos].x;
            out[2] = p[best_pos + 1].x;
            out[3] = ts;
            out[4] = tq;
        }
    }
    if (best_j < 0 || nan_seen || !isfinite(best))
        return -1;
    *pos_out = best_pos;
    out[0] = best;
    return best_j;
}

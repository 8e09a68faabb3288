/* Exact CART tree growth, bit for bit equal to the numpy reference
 * ``forest._grow_tree`` with ``forest._best_split``.
 *
 * ``kp_grow_tree`` grows one whole tree.  It walks the nodes with the same
 * explicit stack as the reference (right child pushed first, so nodes are
 * numbered in preorder), draws each node's candidate features from the
 * same SplitMix64 stream, applies the same stop rules, and writes the six
 * tree arrays and the importances.  A node's rows are held as ascending
 * positions in the bootstrap bag: a stable partition keeps them ascending,
 * which is the order the reference keeps its row lists in.
 *
 * The search compares x values by their dense rank in the column (equal
 * values, 0.0 and -0.0 included, share a rank), which ``kp_rank_columns``
 * computes once per fit, and reads x itself from the row-major X only for
 * the threshold and the partition.  Per candidate column in ascending
 * order, the node's (rank, bag position, y) triples are put in (rank,
 * position) order: gathered and sorted, or read off the column's presort
 * (below).  Ties keep bag-position order on both paths, which is what a
 * stable sort of the node's rows by x gives, so every y sequence is the
 * reference's.  Every position between two distinct x values is then
 * scored with the numpy expression in the numpy operation order:
 *
 *     (lq - ls * ls / nl) + ((tq - lq) - (ts - ls) * (ts - ls) / nr)
 *
 * where ls and lq are the running sums of y and y * y, added one row at a
 * time as ``np.cumsum`` does, and ts and tq their totals over the node.
 * The first strict minimum wins: lowest candidate column, then lowest
 * position.  A NaN score voids the node, as numpy's ``min`` does.  Build
 * with -ffp-contract=off so that no multiply-add is fused.
 *
 * The node being grown holds the segment pos[s..e) of one array of bag
 * positions; segments nest, and only the node being split permutes pos,
 * inside its own segment.  A column's presort is a stack of windows: a
 * window [lo, hi) is a range of pos indices, and presort[lo..hi) holds the
 * bag positions now in pos[lo..hi), in (rank, position) order, so every
 * window stays valid.  The walk is preorder, so the windows that end by s
 * are finished, the innermost of the rest holds the node, and its rows
 * before s belong to finished nodes.  One pass over that window gathers
 * the node's triples in order, drops the finished rows and keeps the
 * pending ones behind the node's: [lo, hi) becomes [s, e) and [e, hi), and
 * a descendant reads a window a few times its own size, not the whole bag.
 * ``where`` maps each bag position to its index in pos.  A node of at
 * least PRESORT_MIN rows reads the window, or presorts pos[s..n) by a
 * counting sort on rank when the column has none; a smaller node reads it
 * when it holds at most WINDOW_READ times the node's rows and sorts
 * otherwise.  A column that would hold more than WINDOWS windows drops its
 * presort, and its next large node presorts it again.
 *
 * A rank and a bag position are an ``entry``: 16 bits, so the ranks and
 * each caller's presort take 2 bytes per row and column, or 32 bits when
 * built with -DKP_WIDE.  ``kp_max_rows`` is the most rows an X may have in
 * this build (a bag has as many positions as X has rows); the loader reads
 * it to choose the build for a matrix and the dtype of its ranks.
 *
 * The functions touch no Python object, so they run with the interpreter
 * lock released.  Each caller passes its own scratch of
 * ``kp_scratch_bytes(rows, columns)`` bytes; the ranks are only read.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Nodes with at least this many rows read presorted columns instead of
 * sorting; 32 to 128 rows time alike on 700 to 1,400-row bags. */
#define PRESORT_MIN 64
/* A smaller node reads a window of at most this many times its rows. */
#define WINDOW_READ 8
/* The windows a column may hold; the benchmark's fits never fill 16. */
#define WINDOWS 16
#define RUN 16

#ifdef KP_WIDE
typedef uint32_t entry;
const int64_t kp_max_rows = 0x7FFFFFFF; /* a row index is exact as a double, and fits int32 */
#else
typedef uint16_t entry;
const int64_t kp_max_rows = 0x10000; /* positions and ranks 0 to 65,535 */
#endif

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

/* A sort key and its target; in a node, key = rank << 32 | bag position. */
typedef struct {
    uint64_t key;
    double y;
} pair;

#define RANK(key) ((key) >> 32)
#define POSITION(key) ((int64_t)((key) & 0xFFFFFFFFu))

/* A node waiting on the stack: its bag positions pos[start..end) and the
 * split whose right child it is, or -1. */
typedef struct {
    int64_t start, end, parent;
} pending;

/* Scratch carved from one caller-owned buffer; n bag rows, p columns. */
typedef struct {
    const double *x;    /* row-major X, n rows of p */
    const entry *ranks; /* p columns of n: each row's dense rank */
    int64_t n, p;
    const int64_t *bag; /* bag position -> row of X */
    double *yb;       /* y by bag position */
    entry *presort;   /* p columns of n: the windows' bag positions in stable x order */
    int32_t *lo;      /* p: where each column's innermost window starts */
    int32_t *ends;    /* p columns of WINDOWS: the windows' ends, innermost last */
    uint8_t *windows; /* p: windows held; 0 when the column is not presorted */
    entry *where;     /* n: bag position -> its index in pos */
    int32_t *count;   /* n + 1: the counting sort's rank offsets */
    pair *pairs;      /* n + 1: a window pass writes one past the node */
    pair *tmp;        /* n */
    double *ys;       /* n: a leaf's targets in node order */
    entry *pos;       /* n: every node's positions, a segment per node */
    entry *part;      /* n: the partition's and a window pass's buffer */
    pending *stack;   /* n: at most one pending node per bag position */
    uint64_t *keys;   /* p */
    uint64_t *work;   /* p */
    int64_t *cand;    /* p */
} grower;

static size_t align16(size_t size)
{
    return (size + 15) & ~(size_t)15;
}

/* Points g's buffers into the scratch at ``base``, for a bag of n rows
 * drawn from an n-row X with p columns, and returns the scratch's size in
 * bytes. */
static size_t carve(grower *g, uintptr_t base, int64_t n, int64_t p)
{
    size_t at = 0;
#define CARVE(field, count) \
    (g->field = (void *)(base + at), at += align16(sizeof *g->field * (size_t)(count)))
    CARVE(yb, n);
    CARVE(presort, n * p);
    CARVE(lo, p);
    CARVE(ends, p * WINDOWS);
    CARVE(windows, p);
    CARVE(where, n);
    CARVE(count, n + 1);
    CARVE(pairs, n + 1);
    CARVE(tmp, n);
    CARVE(ys, n);
    CARVE(pos, n);
    CARVE(part, n);
    CARVE(stack, n);
    CARVE(keys, p);
    CARVE(work, p);
    CARVE(cand, p);
#undef CARVE
    return at;
}

/* Scratch for bags of up to n rows of an n-row X with p columns. */
int64_t kp_scratch_bytes(int64_t n, int64_t p)
{
    grower g;
    return (int64_t)carve(&g, 0, n, p);
}

static void setup(grower *g, const double *x, const entry *ranks, int64_t n, int64_t p,
                  const int64_t *bag, void *scratch)
{
    g->x = x;
    g->ranks = ranks;
    g->n = n;
    g->p = p;
    g->bag = bag;
    carve(g, (uintptr_t)scratch, n, p);
    memset(g->windows, 0, p);
}

/* ---------------------------------------------------------------- sorting */

static void insertion_sort(pair *a, int64_t m)
{
    for (int64_t i = 1; i < m; i++) {
        pair v = a[i];
        int64_t j = i;
        while (j > 0 && v.key < a[j - 1].key) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = v;
    }
}

/* Stable sort of a[0..m) by key; returns whichever of a and tmp holds it. */
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
                dst[k++] = src[j].key < src[i].key ? src[j++] : src[i++];
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

/* Each column's dense ranks of the finite row-major X: rank r holds the
 * rows with the (r+1)-th smallest distinct value, and values that compare
 * equal (0.0 and -0.0) share a rank.  ``pairs`` holds 2 * n pairs. */
void kp_rank_columns(const double *x, int64_t n, int64_t p, void *pairs, entry *ranks)
{
    pair *a = pairs;
    for (int64_t f = 0; f < p; f++) {
        for (int64_t i = 0; i < n; i++) {
            const double v = x[i * p + f] + 0.0; /* -0.0 + 0.0 is 0.0 */
            uint64_t bits;
            memcpy(&bits, &v, sizeof bits);
            /* unsigned order of these keys is the order of the doubles */
            a[i].key = bits >> 63 ? ~bits : bits | 1ULL << 63;
            a[i].y = (double)i; /* exact: n < 2**31 */
        }
        const pair *s = sort_pairs(a, a + n, n);
        entry *rank = ranks + f * n;
        int64_t r = 0;
        for (int64_t i = 0; i < n; i++) {
            r += i > 0 && s[i].key != s[i - 1].key;
            rank[(int64_t)s[i].y] = (entry)r;
        }
    }
}

/* Presorts the rows pos[s..n), the node's and the pending ones, into
 * column f's one window [s, n).  A counting sort on rank visits the bag
 * positions in ascending order, so ties keep position order. */
static void presort(grower *g, int64_t f, int64_t s)
{
    entry *order = g->presort + f * g->n;
    const entry *rank = g->ranks + f * g->n;
    int32_t *count = g->count;
    memset(count, 0, sizeof(int32_t) * (g->n + 1));
    for (int64_t i = 0; i < g->n; i++)
        if (g->where[i] >= s)
            count[rank[g->bag[i]] + 1]++;
    for (int64_t r = 1; r < g->n; r++)
        count[r] += count[r - 1];
    for (int64_t i = 0; i < g->n; i++)
        if (g->where[i] >= s)
            order[s + count[rank[g->bag[i]]]++] = (entry)i;
    g->lo[f] = (int32_t)s;
    g->ends[f * WINDOWS] = (int32_t)g->n;
    g->windows[f] = 1;
}

/* The pairs of the node pos[s..e) in column f, read off the column's
 * innermost window [lo, hi), which holds the node.  One pass keeps the
 * node's rows in ``pairs`` and the pending ones (at pos indices from e) in
 * ``part``, both in order, and drops the finished rows; the node's then go
 * to presort[s..e) and the pending ones behind them, and the window
 * becomes [s, e) and [e, hi).  The pass writes every row to both buffers
 * and advances the one it belongs to: a branch on where the row goes is
 * mispredicted so often that the pass took a quarter to a third longer
 * with one. */
static const pair *read_window(grower *g, int64_t f, int64_t s, int64_t e)
{
    entry *order = g->presort + f * g->n;
    int32_t *ends = g->ends + f * WINDOWS;
    const entry *rank = g->ranks + f * g->n;
    const int64_t lo = g->lo[f], hi = ends[g->windows[f] - 1];
    const uint32_t m = (uint32_t)(e - s);
    pair *p = g->pairs;
    int64_t k = 0, up = 0;
    for (int64_t i = lo; i < hi; i++) {
        const entry at = order[i];
        const int32_t w = g->where[at];
        g->part[up] = at;
        up += w >= e;
        p[k].key = (uint64_t)rank[g->bag[at]] << 32 | (uint64_t)at;
        p[k].y = g->yb[at];
        k += (uint32_t)(w - s) < m; /* s <= w < e */
    }
    for (k = 0; k < e - s; k++)
        order[s + k] = (entry)POSITION(p[k].key);
    memcpy(order + e, g->part, sizeof *order * up);
    if (e < hi && g->windows[f] == WINDOWS) {
        g->windows[f] = 0; /* no room for [e, hi), and [lo, s) is stale */
        return p;
    }
    g->lo[f] = (int32_t)s;
    if (e < hi)
        ends[g->windows[f]++] = (int32_t)e;
    return p;
}

/* --------------------------------------------------------------- searching */

/* The pairs of the node pos[s..s + m) in column f, in (rank, bag position)
 * order. */
static const pair *column_pairs(grower *g, int64_t f, int64_t s, int64_t m)
{
    const int32_t *ends = g->ends + f * WINDOWS;
    if (g->windows[f]) {
        /* drop the finished windows; the outermost ends at n > s */
        while (ends[g->windows[f] - 1] <= s)
            g->lo[f] = ends[--g->windows[f]];
    } else if (m >= PRESORT_MIN) {
        presort(g, f, s);
    }
    if (g->windows[f]
        && (m >= PRESORT_MIN || ends[g->windows[f] - 1] - g->lo[f] <= WINDOW_READ * m))
        return read_window(g, f, s, s + m);

    const entry *rank = g->ranks + f * g->n;
    const entry *pos = g->pos + s;
    pair *p = g->pairs;
    for (int64_t i = 0; i < m; i++) {
        p[i].key = (uint64_t)rank[g->bag[pos[i]]] << 32 | (uint64_t)pos[i];
        p[i].y = g->yb[pos[i]];
    }
    return sort_pairs(p, g->tmp, m);
}

/* x of column f at bag position ``at``. */
static double x_at(const grower *g, int64_t f, int64_t at)
{
    return g->x[g->bag[at] * g->p + f];
}

/* Searches the m rows at ascending bag positions pos[s..s + m) over the k
 * ascending columns ``cand``.  Returns the index into ``cand`` of the
 * winning column, or -1 when no candidate separates the rows (or the best
 * score is not finite).  On a win ``out`` holds the best score, the x
 * values either side of the cut, and the winning column's total sum and
 * sum of squares of y. */
static int64_t best_split(grower *g, int64_t s, int64_t m,
                          const int64_t *cand, int64_t k, double *out)
{
    double best = INFINITY;
    int64_t best_j = -1;
    int nan_seen = 0;
    const double nm = (double)m;

    for (int64_t j = 0; j < k; j++) {
        const int64_t f = cand[j];
        const pair *p = column_pairs(g, f, s, m);

        double ts = p[0].y, tq = p[0].y * p[0].y;
        for (int64_t i = 1; i < m; i++) {
            ts = ts + p[i].y;
            tq = tq + p[i].y * p[i].y;
        }

        int64_t cut = -1;
        double ls = p[0].y, lq = p[0].y * p[0].y;
        for (int64_t i = 0; i < m - 1; i++) {
            if (RANK(p[i + 1].key) != RANK(p[i].key)) {
                const double nl = (double)(i + 1);
                const double nr = nm - nl;
                const double rs = ts - ls;
                const double score = (lq - ls * ls / nl) + ((tq - lq) - rs * rs / nr);
                if (score < best) {
                    best = score;
                    cut = i;
                } else if (score != score) {
                    nan_seen = 1;
                }
            }
            ls = ls + p[i + 1].y;
            lq = lq + p[i + 1].y * p[i + 1].y;
        }
        if (cut >= 0) {
            best_j = j;
            out[0] = best;
            out[1] = x_at(g, f, POSITION(p[cut].key));
            out[2] = x_at(g, f, POSITION(p[cut + 1].key));
            out[3] = ts;
            out[4] = tq;
        }
    }
    if (best_j < 0 || nan_seen || !isfinite(best))
        return -1;
    return best_j;
}

/* ----------------------------------------------------------------- drawing */

static uint64_t next_u64(uint64_t *state)
{
    uint64_t z = *state += GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* The k-th smallest (0-based) of a[0..n), reordering a. */
static uint64_t kth_smallest(uint64_t *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        const uint64_t pivot = a[lo + (hi - lo) / 2];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot)
                i++;
            while (a[j] > pivot)
                j--;
            if (i <= j) {
                uint64_t t = a[i];
                a[i++] = a[j];
                a[j--] = t;
            }
        }
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            break;
    }
    return a[k];
}

/* The indices of the k smallest of p keys, ascending; of equal keys the
 * lower indices are kept, as a stable argsort keeps them.  ``work`` holds
 * p keys of scratch.  This is ``rng.PortableRng.subset`` after its draw. */
void kp_smallest_keys(const uint64_t *keys, int64_t p, int64_t k,
                      uint64_t *work, int64_t *out)
{
    if (k <= 0)
        return;
    memcpy(work, keys, sizeof(uint64_t) * p);
    const uint64_t last = kth_smallest(work, p, k - 1);
    int64_t ties = k;
    for (int64_t i = 0; i < p; i++)
        ties -= keys[i] < last;
    int64_t j = 0;
    for (int64_t i = 0; i < p; i++)
        if (keys[i] < last || (keys[i] == last && ties-- > 0))
            out[j++] = i;
}

/* ----------------------------------------------------------------- growing */

/* numpy's pairwise sum (``np.add.reduce`` on a contiguous float64 array):
 * eight accumulators up to 128 values, halves cut at a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Grows one tree on the n rows of ``bag`` (a row of X per bag position;
 * its length is X's row count).  ``state`` is the tree's SplitMix64 state
 * after the bag was drawn.  Writes each node's six arrays in preorder,
 * adds each split's importance to ``imp`` (p zeros on entry) and returns
 * the node count, at most 2 * n - 1; or -1, before writing out of bounds,
 * if a split left a side empty. */
int64_t kp_grow_tree(const double *x, const entry *ranks, int64_t n, int64_t p,
                     const double *y, const int64_t *bag, uint64_t state,
                     int64_t mtry, int64_t min_leaf, void *scratch,
                     int64_t *feature, double *threshold, int64_t *left, int64_t *right,
                     double *value, int64_t *n_samples, double *imp)
{
    grower g;
    setup(&g, x, ranks, n, p, bag, scratch);
    for (int64_t i = 0; i < n; i++) {
        g.yb[i] = y[bag[i]];
        g.pos[i] = g.where[i] = (entry)i;
    }
    for (int64_t f = 0; f < p; f++)
        g.cand[f] = f;

    int64_t nodes = 0, top = 0;
    g.stack[top++] = (pending){0, n, -1};
    while (top > 0) {
        const pending at = g.stack[--top];
        entry *pos = g.pos + at.start;
        const int64_t m = at.end - at.start;
        if (nodes == 2 * n - 1)
            return -1;
        const int64_t node = nodes++;
        if (at.parent >= 0)
            right[at.parent] = node;

        int64_t j = -1;
        double out[5] = {0.0}; /* filled on a win; gcc cannot tell */
        int varies = 0;
        for (int64_t i = 1; i < m && !varies; i++)
            varies = g.yb[pos[i]] != g.yb[pos[0]];
        if (m > min_leaf && varies) {
            if (mtry < p) {
                for (int64_t f = 0; f < p; f++)
                    g.keys[f] = next_u64(&state);
                kp_smallest_keys(g.keys, p, mtry, g.work, g.cand);
            }
            j = best_split(&g, at.start, m, g.cand, mtry, out);
        }
        if (j < 0) {
            for (int64_t i = 0; i < m; i++)
                g.ys[i] = g.yb[pos[i]];
            feature[node] = -1;
            threshold[node] = 0.0;
            left[node] = -1;
            right[node] = -1;
            /* numpy's mean: the pairwise sum added to the reduction's 0.0 */
            value[node] = (0.0 + pairwise_sum(g.ys, m)) / (double)m;
            n_samples[node] = m;
            continue;
        }

        const int64_t f = g.cand[j];
        const double lo = out[1], hi = out[2];
        double t = (lo + hi) / 2.0;
        /* midpoint rounded up to hi, or lo + hi overflowed: lo < hi, so
         * splitting at lo keeps both sides non-empty */
        if (t == hi || !isfinite(t))
            t = lo;
        const double parent_sse = out[4] - out[3] * out[3] / (double)m;
        imp[f] += (parent_sse - out[0]) / (double)n;
        feature[node] = f;
        threshold[node] = t;
        left[node] = node + 1;
        right[node] = -1; /* set when the right child is numbered */
        value[node] = 0.0;
        n_samples[node] = 0;

        /* Stable partition: x <= t to the left, both sides stay ascending. */
        int64_t nl = 0, nr = 0;
        for (int64_t i = 0; i < m; i++) {
            if (x_at(&g, f, pos[i]) <= t)
                pos[nl++] = pos[i];
            else
                g.part[nr++] = pos[i];
        }
        memcpy(pos + nl, g.part, sizeof *pos * nr);
        for (int64_t i = 0; i < m; i++)
            g.where[pos[i]] = (entry)(at.start + i);

        /* Non-empty sides bound the stack by n and the nodes by 2n - 1. */
        if (nl == 0 || nr == 0 || top + 2 > g.n)
            return -1;
        g.stack[top++] = (pending){at.start + nl, at.end, node};
        g.stack[top++] = (pending){at.start, at.start + nl, -1};
    }
    return nodes;
}

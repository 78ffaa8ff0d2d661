/* Binning, fused histogram / split-scan / whole-tree kernels for the
 * growers, and the traversal kernels.
 *
 * Bitwise contract: every function reproduces the pure-numpy reference
 * in repro/native/fallback.py bit for bit, including IEEE corner cases.
 * The rules that make that possible (verified empirically against
 * numpy and asserted by tests/native/test_kernel_parity.py):
 *
 *  - np.bincount(weights=...) accumulates each bucket sequentially in
 *    input order starting from +0.0 -> plain `+=` loops in row order;
 *  - np.cumsum is a sequential left-to-right accumulation;
 *  - np.ndarray.sum(axis=0) reduces sequentially over the axis,
 *    starting from +0.0 (so -0.0 terms behave like numpy's);
 *  - np.ndarray.sum() of a whole (gathered, contiguous) vector is
 *    numpy's *pairwise* sum: runs of at most 128 values use 8
 *    accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) plus
 *    a sequential tail, runs under 8 values add sequentially from 0.,
 *    and longer runs split at n/2 rounded down to a multiple of 8; the
 *    total is then added to a +0.0 start (pairwise_sum below);
 *  - np.power(x, 2) on arrays takes numpy's fast path and equals x*x,
 *    but `np.float64 ** 2` on a *scalar* calls libm pow(), which for
 *    some |x| > 1e50 differs from x*x in the last bit -- the grower's
 *    per-node parent score is scalar arithmetic, so it uses pow();
 *  - np.argmax scans in row-major order, strictly-greater replaces,
 *    and the FIRST NaN wins and stops the scan;
 *  - heapq orders the grower's (-gain, counter, ...) tuples by CPython
 *    tuple comparison: the first unequal slot decides, and a NaN key
 *    is unequal to everything and less than nothing -- grow_tree's heap
 *    runs heapq's exact sift algorithm on that predicate, so even NaN
 *    gains pop in the reference order;
 *  - elementwise arithmetic is replicated with the same association
 *    as the numpy expressions (noted per loop below);
 *  - np.searchsorted(e, x, side="left") counts the edges e[i] < x
 *    under numpy's NaN-last order; edges are sorted in that order by
 *    construction (np.unique, midpoints of uniques, subsets of those),
 *    so for a non-NaN key the count is that of plain IEEE `e[i] < x`
 *    (a NaN edge is never below it, and -0.0 < +0.0 is false in both),
 *    and any correct binary search over the sorted edges finds it.
 *
 * Latency, not arithmetic: the hot loops below also prefetch the rows
 * they will touch PREFETCH_DISTANCE iterations ahead, and the row
 * partition advances its cursors with no data-dependent branch.  Neither
 * can change a bit: a prefetch is only a hint to the cache and reads or
 * writes nothing the loop sees, and the partition still visits rows in
 * order and appends each to exactly one side, so both sides keep their
 * parent's row order and every later sum adds the same values in the
 * same order.
 *
 * Compiled with -ffp-contract=off so no FMA contraction can change
 * intermediate roundings relative to numpy's scalar SSE2 arithmetic.
 * No numpy headers: arrays arrive as C-contiguous buffers (PyBUF_SIMPLE
 * fails loudly on anything non-contiguous).  grow_tree and bin_codes run
 * their loops with the GIL released; grow_tree allocates with malloc
 * there and, on failure, raises MemoryError once the GIL is back.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Rows arrive in sample order (random under row subsampling), so each
 * row's codes and gradients miss the cache; the loops request them this
 * many rows ahead. */
#define PREFETCH_DISTANCE 16

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)0)
#endif

/* ------------------------------------------------------------------ */
/* Codes of a row-major float64 block x[n, d]: per cell
 * searchsorted(edges_j, x, side="left") + 1, and 0 (the missing bin)
 * for NaN -- fallback.bin_codes.  Column j's sorted edges are
 * edges[off[j] .. off[j+1]).
 *
 * The search halves a window whose length depends only on the edge
 * count, and moves its base by a mask, so neither the trip count nor
 * any branch depends on the key (a branchy search mispredicts about
 * every other probe on random keys).  Invariant: the count of edges
 * below x lies in [base - e, base - e + m].
 */
static inline Py_ssize_t
count_below(const double *e, Py_ssize_t m, double x)
{
    const double *base = e;
    if (m == 0)
        return 0;
    while (m > 1) {
        const Py_ssize_t half = m >> 1;
        base += half & -(Py_ssize_t)(base[half] < x);
        m -= half;
    }
    return (base - e) + (base[0] < x);
}

#define BIN_LOOP(ctype)                                                   \
    do {                                                                  \
        ctype *op = (ctype *)out;                                         \
        for (i = 0; i < n; i++) {                                         \
            const double *xr = x + i * d;                                 \
            ctype *orow = op + i * d;                                     \
            for (j = 0; j < d; j++) {                                     \
                const double v = xr[j];                                   \
                const Py_ssize_t c =                                      \
                    count_below(edges + off[j], off[j + 1] - off[j], v)   \
                    + 1;                                                  \
                orow[j] = (ctype)(c & -(Py_ssize_t)(v == v));             \
            }                                                             \
        }                                                                 \
    } while (0)

static void
bin_block(const double *x, Py_ssize_t n, Py_ssize_t d, const double *edges,
          const int64_t *off, void *out, int itemsize)
{
    Py_ssize_t i, j;
    if (itemsize == 1)
        BIN_LOOP(uint8_t);
    else
        BIN_LOOP(uint16_t);
}

#undef BIN_LOOP

/* args: x float64[n, d] (y*), n (n), d (n), edges float64 (y*),
 *       offsets int64[d + 1] (y*), out uint8/uint16[n, d] (w*),
 *       itemsize (i) */
static PyObject *
py_bin_codes(PyObject *self, PyObject *args)
{
    Py_buffer x, edges, offs, out;
    Py_ssize_t n, d, j;
    int itemsize;
    const int64_t *off;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*nny*y*w*i", &x, &n, &d, &edges, &offs,
                          &out, &itemsize))
        return NULL;
    off = (const int64_t *)offs.buf;
    if (n < 0 || d < 0 || (itemsize != 1 && itemsize != 2)
        || x.len != n * d * (Py_ssize_t)sizeof(double)
        || out.len != n * d * itemsize
        || offs.len != (d + 1) * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError,
                        "x/offsets/out disagree on the block shape");
        goto release;
    }
    for (j = 0; j < d; j++)
        if (off[j] < 0 || off[j + 1] < off[j]) {
            PyErr_SetString(PyExc_ValueError, "edge offsets must ascend");
            goto release;
        }
    if (d > 0 && off[d] * (int64_t)sizeof(double) > (int64_t)edges.len) {
        PyErr_SetString(PyExc_ValueError, "edge offsets overrun the edges");
        goto release;
    }
    Py_BEGIN_ALLOW_THREADS
    bin_block((const double *)x.buf, n, d, (const double *)edges.buf, off,
              out.buf, itemsize);
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);
release:
    PyBuffer_Release(&x);
    PyBuffer_Release(&edges);
    PyBuffer_Release(&offs);
    PyBuffer_Release(&out);
    return result;
}

/* ------------------------------------------------------------------ */
/* Accumulate grad/hess[/count] histograms of the rows ix[0..ni) into
 * the zeroed out[P, F, nbmax].  by_row selects where row r's weights
 * live: g[ix[r]] (full-length vectors) or g[r] (already gathered to ix
 * order) -- the same doubles either way.
 *
 * Equivalent numpy: one flat np.bincount over disjoint
 * (part, feature, bin) key ranges -- each bucket accumulates the same
 * rows in the same order as this row-major loop.
 */
#define HIST_LOOP(ctype)                                                  \
    do {                                                                  \
        const ctype *cp = (const ctype *)codes;                           \
        for (r = 0; r < ni; r++) {                                        \
            const Py_ssize_t i = by_row ? (Py_ssize_t)ix[r] : r;          \
            const ctype *row = cp + (Py_ssize_t)ix[r] * d;                \
            const double gv = g[i], hv = h[i];                            \
            if (r + PREFETCH_DISTANCE < ni) {                             \
                const Py_ssize_t ra = (Py_ssize_t)ix[r + PREFETCH_DISTANCE];\
                PREFETCH(cp + ra * d);                                    \
                if (by_row) {                                             \
                    PREFETCH(g + ra);                                     \
                    PREFETCH(h + ra);                                     \
                }                                                         \
            }                                                             \
            for (j = 0; j < F; j++) {                                     \
                const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[fp[j]];  \
                og[o] += gv;                                              \
                oh[o] += hv;                                              \
                if (oc)                                                   \
                    oc[o] += 1.0;                                         \
            }                                                             \
        }                                                                 \
    } while (0)

static void
hist_accumulate(const void *codes, int itemsize, Py_ssize_t d,
                const int64_t *ix, Py_ssize_t ni, const double *g,
                const double *h, int by_row, const int64_t *fp,
                Py_ssize_t F, Py_ssize_t nbmax, int need_cnt, double *og)
{
    double *oh = og + F * nbmax;
    double *oc = need_cnt ? og + 2 * F * nbmax : NULL;
    Py_ssize_t r, j;

    if (itemsize == 1)
        HIST_LOOP(uint8_t);
    else
        HIST_LOOP(uint16_t);
}

#undef HIST_LOOP

/* args: codes (y*), itemsize (i), d (n), idx int64 (y*), g float64 (y*),
 *       h float64 (y*), features int64 (y*), nbmax (n), need_cnt (i),
 *       out float64[P, F, nbmax] zeroed (w*)
 * g/h are gathered to idx order. */
static PyObject *
py_build_hists(PyObject *self, PyObject *args)
{
    Py_buffer codes, idx, g, h, feats, out;
    int itemsize, need_cnt;
    Py_ssize_t d, nbmax;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*niw*",
                          &codes, &itemsize, &d, &idx, &g, &h, &feats,
                          &nbmax, &need_cnt, &out))
        return NULL;
    hist_accumulate(codes.buf, itemsize, d, (const int64_t *)idx.buf,
                    idx.len / (Py_ssize_t)sizeof(int64_t),
                    (const double *)g.buf, (const double *)h.buf, 0,
                    (const int64_t *)feats.buf,
                    feats.len / (Py_ssize_t)sizeof(int64_t), nbmax,
                    need_cnt, (double *)out.buf);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&idx);
    PyBuffer_Release(&g);
    PyBuffer_Release(&h);
    PyBuffer_Release(&feats);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* np.sign(G) * np.maximum(np.abs(G) - alpha, 0.0), exactly:
 * np.maximum propagates NaN; np.sign maps +-0.0 -> 0.0 and NaN -> NaN. */
static inline double
soft_threshold(double G, double alpha)
{
    double a = fabs(G) - alpha;
    double mx = (a != a) ? a : (a > 0.0 ? a : 0.0);
    double sgn = (G > 0.0) ? 1.0 : ((G < 0.0) ? -1.0 : ((G == G) ? 0.0 : G));
    return sgn * mx;
}

/* soft_threshold(G, alpha)^2 / Hreg with the array-power square (x*x) */
static inline double
score_term(double G, double Hreg, double alpha)
{
    double st = soft_threshold(G, alpha);
    return (st * st) / Hreg;
}

/* the grower's scalar parent score: `np.float64 ** 2` is libm pow().
 * The exponent is read through a volatile so the compiler cannot fold
 * pow(x, 2.0) into x*x. */
static volatile double pow_two = 2.0;

static inline double
parent_score(double G, double H, double alpha, double lam)
{
    return pow(soft_threshold(G, alpha), pow_two) / (H + lam);
}

/* numpy's pairwise sum of the gather v[ix[0..n)] (the rules above) */
static double
pairwise_sum(const double *v, const int64_t *ix, Py_ssize_t n)
{
    Py_ssize_t i;

    if (n < 8) {
        double res = 0.;
        for (i = 0; i < n; i++)
            res += v[ix[i]];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int k;
        for (k = 0; k < 8; k++)
            r[k] = v[ix[k]];
        for (i = 8; i < n - (n % 8); i += 8)
            for (k = 0; k < 8; k++)
                r[k] += v[ix[i + k]];
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += v[ix[i]];
        return res;
    }
    {
        Py_ssize_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(v, ix, n2) + pairwise_sum(v, ix + n2, n - n2);
    }
}

/* ------------------------------------------------------------------ */
/* best (gain, feature, threshold) over the histograms of one node;
 * j indexes into the candidate features, j = -1 means no valid split.
 *
 * Numpy reference: cumsum -> validity masks -> gains assembled as
 * ((score(GL,HL) + score(GR,HR)) - parent) * 0.5 -> where(valid, g,
 * -inf) -> flat argmax (first-NaN-wins).
 */
typedef struct {
    double gain;
    Py_ssize_t j, t;
} split_t;

static split_t
scan_split(const double *hg, int P, Py_ssize_t F, Py_ssize_t nbmax,
           const int64_t *nb, double G, double H, double parent,
           double mcw, double alpha, double lam, Py_ssize_t msl,
           Py_ssize_t n_idx)
{
    const split_t none = {0.0, -1, -1};
    const double *hh = hg + F * nbmax;
    const double *hc = (P == 3) ? hg + 2 * F * nbmax : NULL;
    const Py_ssize_t T = nbmax - 1;
    split_t best = {0.0, 0, 0};
    Py_ssize_t bi = 0, j, t;
    int started = 0, any_valid = 0;

    if (T <= 0)
        return none;
    for (j = 0; j < F; j++) {
        const double *rg = hg + j * nbmax;
        const double *rh = hh + j * nbmax;
        const double *rc = hc ? hc + j * nbmax : NULL;
        const Py_ssize_t tmax = (Py_ssize_t)nb[j] - 1;
        double gl = 0.0, hl = 0.0, cl = 0.0;

        for (t = 0; t < T; t++) {
            double hr, v;
            int valid;

            gl += rg[t];
            hl += rh[t];
            if (rc)
                cl += rc[t];
            hr = H - hl;
            valid = (hl >= mcw) && (hr >= mcw) && (t < tmax);
            if (rc)
                valid = valid && (cl >= (double)msl)
                        && ((double)n_idx - cl >= (double)msl);
            if (valid) {
                /* same association as gains = score(GL,HL);
                 * gains += score(GR,HR); gains -= parent;
                 * gains *= 0.5 */
                double gr = G - gl;
                double sl = score_term(gl, hl + lam, alpha);
                double sr = score_term(gr, hr + lam, alpha);
                v = ((sl + sr) - parent) * 0.5;
                any_valid = 1;
            } else {
                v = -INFINITY;
            }
            /* np.argmax over the flat row-major (F, T) array */
            if (!started) {
                best.gain = v;
                bi = 0;
                started = 1;
                if (isnan(v))
                    goto done;
            } else if (v > best.gain || isnan(v)) {
                best.gain = v;
                bi = j * T + t;
                if (isnan(v))
                    goto done;
            }
        }
    }
done:
    if (!any_valid) /* the reference's `not valid.any()` early exit */
        return none;
    best.j = bi / T;
    best.t = bi % T;
    return best;
}

/* args: hists float64[P, F, nbmax] (y*), P (i), F (n), nbmax (n),
 *       n_bins_f int64[F] (y*), G (d), H (d), parent (d),
 *       min_child_weight (d), reg_alpha (d), reg_lambda (d),
 *       min_samples_leaf (n), n_idx (n)
 * returns (best_gain, j, t). */
static PyObject *
py_best_split_scan(PyObject *self, PyObject *args)
{
    Py_buffer hists, nbf;
    int P;
    Py_ssize_t F, nbmax, msl, n_idx;
    double G, H, parent, mcw, alpha, lam;
    split_t s;

    if (!PyArg_ParseTuple(args, "y*inny*ddddddnn",
                          &hists, &P, &F, &nbmax, &nbf, &G, &H, &parent,
                          &mcw, &alpha, &lam, &msl, &n_idx))
        return NULL;
    s = scan_split((const double *)hists.buf, P, F, nbmax,
                   (const int64_t *)nbf.buf, G, H, parent, mcw, alpha, lam,
                   msl, n_idx);
    PyBuffer_Release(&hists);
    PyBuffer_Release(&nbf);
    return Py_BuildValue("dnn", s.gain, s.j, s.t);
}

/* ------------------------------------------------------------------ */
/* One whole gradient tree: fallback.grow_tree's node loop, in C.
 *
 * Every node owns a contiguous segment [lo, hi) of one row buffer (a
 * copy of the sample indices); a split partitions its segment stably
 * in place, so children keep their parent's row order -- the order of
 * numpy's idx[goleft] / idx[~goleft].  Each node's G and H are summed
 * once (pairwise, as ndarray.sum) and reused for its leaf value, its
 * parent score and its scan.  Pending splits wait in a heap (leaf-wise)
 * or a FIFO (depth-wise) together with their histograms, parked for
 * the sibling-subtraction trick while the parked total stays within
 * the caller's byte cap.
 *
 * out_leaf, when given, receives every row's leaf: a grown row's from
 * the segment it ended in, any row outside the sample (row subsampling
 * or a bootstrap) from a walk of the finished tree.  The partition
 * routes rows by the same `code <= threshold` test the walk applies,
 * so both agree with Tree.predict_leaf on every row, and boosting
 * never re-walks a tree to update its scores.
 */
typedef struct {
    double key;      /* -gain */
    int64_t cnt;     /* push counter, the tuple's tie-breaker */
    Py_ssize_t nid, depth, f;
    int64_t t;
    double *hist;    /* parked histograms, or NULL */
} item_t;

/* CPython tuple `<` on (-gain, counter): the first unequal slot
 * decides, and NaN == NaN is false, so NaN keys compare false both ways */
static inline int
item_lt(const item_t *a, const item_t *b)
{
    if (a->key == b->key)
        return a->cnt < b->cnt;
    return a->key < b->key;
}

/* heapq's _siftdown / _siftup, verbatim in structure */
static void
heap_siftdown(item_t *heap, Py_ssize_t start, Py_ssize_t pos)
{
    item_t newitem = heap[pos];
    while (pos > start) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (!item_lt(&newitem, &heap[parentpos]))
            break;
        heap[pos] = heap[parentpos];
        pos = parentpos;
    }
    heap[pos] = newitem;
}

static void
heap_siftup(item_t *heap, Py_ssize_t end, Py_ssize_t pos)
{
    const Py_ssize_t start = pos, limit = end >> 1;
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        item_t tmp;
        if (child + 1 < end && !item_lt(&heap[child], &heap[child + 1]))
            child += 1;
        tmp = heap[child];
        heap[child] = heap[pos];
        heap[pos] = tmp;
        pos = child;
    }
    heap_siftdown(heap, start, pos);
}

enum { GROW_OK = 0, GROW_NOMEM, GROW_BAD_INDEX, GROW_ZERO_DIV };

typedef struct {
    /* inputs */
    const void *codes;
    int itemsize;
    Py_ssize_t d, n_rows, m;
    const int64_t *idx0, *feats, *nbf;
    const double *grad, *hess;
    Py_ssize_t F, nbmax, max_leaves, max_depth, msl, cache_bytes;
    double mcw, alpha, lam, min_gain, eps;
    int leaf_wise, subtract;
    int32_t *out_leaf;
    /* outputs: node arrays */
    Py_ssize_t n_nodes, cap;
    int32_t *feature, *left, *right;
    int64_t *threshold;
    double *value;
    Py_ssize_t *lo, *hi;
    /* scratch */
    int64_t *ix, *tmp;
    item_t *queue;
    Py_ssize_t q_head, q_size, q_cap;
    int64_t counter;
    Py_ssize_t hist_len, hist_bytes;
    double *spare;
    int err;
} grow_t;

/* the reference's plain-float leaf value -soft_threshold(G) / (H + lam):
 * a NaN |G| - alpha poisons the leaf with its own sign flipped, and a
 * zero divisor is Python's ZeroDivisionError (flagged, value unused) */
static double
leaf_value(grow_t *s, double G, double H)
{
    const double den = H + s->lam;
    double a = fabs(G) - s->alpha;
    double num;
    if (den == 0.0) {
        s->err = GROW_ZERO_DIV;
        return 0.0;
    }
    if (a != a)
        return -a / den;
    if (a < 0.0)
        a = 0.0;
    num = (G > 0.0) ? a : ((G < 0.0) ? -a : 0.0);
    return -num / den;
}

static double *
hist_new(grow_t *s)
{
    double *b = s->spare;
    if (b) {
        s->spare = NULL;
        memset(b, 0, (size_t)s->hist_len * sizeof(double));
        return b;
    }
    b = (double *)calloc((size_t)s->hist_len, sizeof(double));
    if (!b)
        s->err = GROW_NOMEM;
    return b;
}

static void
hist_release(grow_t *s, double *b)
{
    if (!b)
        return;
    if (!s->spare)
        s->spare = b;
    else
        free(b);
}

static void *
grow_array(void *p, Py_ssize_t n, size_t size, grow_t *s)
{
    void *q = realloc(p, (size_t)n * size);
    if (!q)
        s->err = GROW_NOMEM;
    return q;
}

static Py_ssize_t
add_node(grow_t *s, double value, Py_ssize_t lo, Py_ssize_t hi)
{
    Py_ssize_t nid = s->n_nodes;
    if (nid == s->cap) {
        Py_ssize_t cap = s->cap ? 2 * s->cap : 64;
        void *p;
#define GROW(field, type)                                                  \
        if (!(p = grow_array(s->field, cap, sizeof(type), s)))             \
            return -1;                                                    \
        s->field = (type *)p;
        GROW(feature, int32_t)
        GROW(left, int32_t)
        GROW(right, int32_t)
        GROW(threshold, int64_t)
        GROW(value, double)
        GROW(lo, Py_ssize_t)
        GROW(hi, Py_ssize_t)
#undef GROW
        s->cap = cap;
    }
    s->feature[nid] = -1;
    s->threshold[nid] = 0;
    s->left[nid] = -1;
    s->right[nid] = -1;
    s->value[nid] = value;
    s->lo[nid] = lo;
    s->hi[nid] = hi;
    s->n_nodes = nid + 1;
    return nid;
}

static int
splittable(const grow_t *s, Py_ssize_t size, Py_ssize_t depth)
{
    if (s->max_depth >= 0 && depth >= s->max_depth)
        return 0;
    return size >= 2 * s->msl && size >= 2;
}

static int
queue_push(grow_t *s, const item_t *item)
{
    if (s->q_head + s->q_size == s->q_cap) {
        if (s->q_head > 0) { /* FIFO: reclaim the popped prefix */
            memmove(s->queue, s->queue + s->q_head,
                    (size_t)s->q_size * sizeof(item_t));
            s->q_head = 0;
        } else {
            Py_ssize_t cap = s->q_cap ? 2 * s->q_cap : 64;
            void *p = grow_array(s->queue, cap, sizeof(item_t), s);
            if (!p)
                return -1;
            s->queue = (item_t *)p;
            s->q_cap = cap;
        }
    }
    s->queue[s->q_head + s->q_size] = *item;
    s->q_size++;
    if (s->leaf_wise)
        heap_siftdown(s->queue, 0, s->q_size - 1);
    return 0;
}

static item_t
queue_pop(grow_t *s)
{
    item_t out;
    if (!s->leaf_wise) { /* FIFO */
        out = s->queue[s->q_head++];
        s->q_size--;
        return out;
    }
    /* heapq.heappop */
    out = s->queue[--s->q_size];
    if (s->q_size > 0) {
        item_t ret = s->queue[0];
        s->queue[0] = out;
        heap_siftup(s->queue, s->q_size, 0);
        out = ret;
    }
    return out;
}

/* the reference's try_split: score node nid and queue it if it splits.
 * Takes ownership of hist (the node's histograms, or NULL to build). */
static int
try_split(grow_t *s, Py_ssize_t nid, Py_ssize_t depth, double G, double H,
          double *hist)
{
    const Py_ssize_t lo = s->lo[nid], size = s->hi[nid] - lo;
    const int P = s->msl > 1 ? 3 : 2;
    double parent;
    split_t best;
    item_t item;

    if (!splittable(s, size, depth) || s->nbmax < 2) {
        hist_release(s, hist);
        return 0;
    }
    parent = parent_score(G, H, s->alpha, s->lam);
    if (!hist) {
        if (!(hist = hist_new(s)))
            return -1;
        hist_accumulate(s->codes, s->itemsize, s->d, s->ix + lo, size,
                        s->grad, s->hess, 1, s->feats, s->F, s->nbmax,
                        P == 3, hist);
    }
    best = scan_split(hist, P, s->F, s->nbmax, s->nbf, G, H, parent,
                      s->mcw, s->alpha, s->lam, s->msl, size);
    if (best.j < 0 || best.gain <= s->eps || best.gain <= s->min_gain) {
        hist_release(s, hist);
        return 0;
    }
    item.key = -best.gain;
    item.cnt = ++s->counter;
    item.nid = nid;
    item.depth = depth;
    item.f = (Py_ssize_t)s->feats[best.j];
    item.t = (int64_t)best.t;
    item.hist = NULL;
    if (s->subtract) {
        const Py_ssize_t nbytes = s->hist_len * (Py_ssize_t)sizeof(double);
        if (s->hist_bytes + nbytes <= s->cache_bytes) {
            item.hist = hist;
            hist = NULL;
            s->hist_bytes += nbytes;
        }
    }
    hist_release(s, hist);
    if (queue_push(s, &item) < 0) {
        hist_release(s, item.hist);
        return -1;
    }
    return 0;
}

/* stable in-place partition of ix[0..n) by codes[row, f] <= t; returns
 * the left count (left rows first, both sides in their old order).
 * Each row is written to both sides and only its own side's cursor
 * advances, so the next row overwrites the other copy: no branch on the
 * code.  ix[nl] is safe to overwrite because nl <= k. */
#define PARTITION_LOOP(ctype)                                             \
    do {                                                                  \
        const ctype *cp = (const ctype *)s->codes;                        \
        for (k = 0; k < n; k++) {                                         \
            const int64_t r = ix[k];                                      \
            Py_ssize_t go_left;                                           \
            if (k + PREFETCH_DISTANCE < n)                                \
                PREFETCH(cp + (Py_ssize_t)ix[k + PREFETCH_DISTANCE] * s->d\
                         + f);                                            \
            go_left = (int64_t)cp[(Py_ssize_t)r * s->d + f] <= t;         \
            ix[nl] = r;                                                   \
            tmp[nr] = r;                                                  \
            nl += go_left;                                                \
            nr += 1 - go_left;                                            \
        }                                                                 \
    } while (0)

static Py_ssize_t
partition_rows(grow_t *s, int64_t *ix, Py_ssize_t n, Py_ssize_t f,
               int64_t t)
{
    int64_t *tmp = s->tmp;
    Py_ssize_t nl = 0, nr = 0, k;
    if (s->itemsize == 1)
        PARTITION_LOOP(uint8_t);
    else
        PARTITION_LOOP(uint16_t);
    memcpy(ix + nl, tmp, (size_t)nr * sizeof(int64_t));
    return nl;
}

#undef PARTITION_LOOP

/* the leaf row r reaches by walking the grown tree (Tree.predict_leaf) */
static int32_t
walk_leaf(const grow_t *s, Py_ssize_t r)
{
    Py_ssize_t node = 0;
    while (s->feature[node] >= 0) {
        const Py_ssize_t o = r * s->d + s->feature[node];
        const int64_t c = (s->itemsize == 1)
            ? (int64_t)((const uint8_t *)s->codes)[o]
            : (int64_t)((const uint16_t *)s->codes)[o];
        node = (c <= s->threshold[node]) ? s->left[node] : s->right[node];
    }
    return (int32_t)node;
}

/* every row's leaf: the grown rows from their final segments, then a
 * walk of the finished tree for every row the sample left out */
static void
fill_leaves(const grow_t *s)
{
    int32_t *ol = s->out_leaf;
    Py_ssize_t k, r;
    for (r = 0; r < s->n_rows; r++)
        ol[r] = -1;
    for (k = 0; k < s->n_nodes; k++)
        if (s->feature[k] < 0)
            for (r = s->lo[k]; r < s->hi[k]; r++)
                ol[s->ix[r]] = (int32_t)k;
    for (r = 0; r < s->n_rows; r++)
        if (ol[r] < 0)
            ol[r] = walk_leaf(s, r);
}

static void
grow_core(grow_t *s)
{
    const Py_ssize_t hist_nbytes = s->hist_len * (Py_ssize_t)sizeof(double);
    Py_ssize_t k, n_leaves = 1;
    double G0, H0, lval, rval;

    s->ix = (int64_t *)malloc((size_t)(s->m ? s->m : 1) * sizeof(int64_t));
    s->tmp = (int64_t *)malloc((size_t)(s->m ? s->m : 1) * sizeof(int64_t));
    if (!s->ix || !s->tmp) {
        s->err = GROW_NOMEM;
        return;
    }
    for (k = 0; k < s->m; k++) { /* numpy fancy-index semantics */
        int64_t r = s->idx0[k];
        if (r < 0)
            r += s->n_rows;
        if (r < 0 || r >= s->n_rows) {
            s->err = GROW_BAD_INDEX;
            return;
        }
        s->ix[k] = r;
    }
    G0 = 0.0 + pairwise_sum(s->grad, s->ix, s->m);
    H0 = 0.0 + pairwise_sum(s->hess, s->ix, s->m);
    lval = leaf_value(s, G0, H0);
    if (s->err || add_node(s, lval, 0, s->m) < 0)
        return;
    if (try_split(s, 0, 0, G0, H0, NULL) < 0)
        return;

    while (s->q_size > 0 && n_leaves < s->max_leaves) {
        const item_t it = queue_pop(s);
        const Py_ssize_t lo = s->lo[it.nid], hi = s->hi[it.nid];
        Py_ssize_t nl, nr, lid, rid, c;
        double GL, HL, GR, HR;
        double *lh = NULL, *rh = NULL;

        if (it.hist)
            s->hist_bytes -= hist_nbytes;
        nl = partition_rows(s, s->ix + lo, hi - lo, it.f, it.t);
        nr = hi - lo - nl;
        GL = 0.0 + pairwise_sum(s->grad, s->ix + lo, nl);
        HL = 0.0 + pairwise_sum(s->hess, s->ix + lo, nl);
        GR = 0.0 + pairwise_sum(s->grad, s->ix + lo + nl, nr);
        HR = 0.0 + pairwise_sum(s->hess, s->ix + lo + nl, nr);
        lval = leaf_value(s, GL, HL);
        rval = s->err ? 0.0 : leaf_value(s, GR, HR);
        lid = s->err ? -1 : add_node(s, lval, lo, lo + nl);
        rid = lid < 0 ? -1 : add_node(s, rval, lo + nl, hi);
        if (rid < 0) {
            hist_release(s, it.hist);
            return;
        }
        s->feature[it.nid] = (int32_t)it.f;
        s->threshold[it.nid] = it.t;
        s->left[it.nid] = (int32_t)lid;
        s->right[it.nid] = (int32_t)rid;
        n_leaves++;
        if (it.hist) {
            /* build the smaller child's histograms only; the larger
             * child's are parent - sibling, computed in the parent's
             * buffer (elementwise, as numpy's phists - sh) */
            const int small_is_left = nl <= nr;
            const Py_ssize_t ns = small_is_left ? nl : nr;
            const Py_ssize_t s_lo = small_is_left ? lo : lo + nl;
            const int small_ok = splittable(s, ns, it.depth + 1);
            const int big_ok = splittable(s, small_is_left ? nr : nl,
                                          it.depth + 1);
            double *sh = NULL, *bh = NULL;
            if (small_ok || big_ok) {
                if (!(sh = hist_new(s))) {
                    hist_release(s, it.hist);
                    return;
                }
                hist_accumulate(s->codes, s->itemsize, s->d, s->ix + s_lo,
                                ns, s->grad, s->hess, 1, s->feats, s->F,
                                s->nbmax, s->msl > 1, sh);
                if (big_ok) {
                    bh = it.hist;
                    for (k = 0; k < s->hist_len; k++)
                        bh[k] = bh[k] - sh[k];
                }
            }
            if (!bh)
                hist_release(s, it.hist);
            lh = small_is_left ? sh : bh;
            rh = small_is_left ? bh : sh;
        }
        for (c = 0; c < 2; c++) {
            if (n_leaves >= s->max_leaves) {
                if (c == 0)
                    hist_release(s, lh);
                hist_release(s, rh);
                break;
            }
            if (c == 0 ? try_split(s, lid, it.depth + 1, GL, HL, lh)
                       : try_split(s, rid, it.depth + 1, GR, HR, rh)) {
                if (c == 0)
                    hist_release(s, rh);
                return;
            }
        }
    }

    if (s->out_leaf)
        fill_leaves(s);
}

static PyObject *
bytes_of(const void *p, Py_ssize_t n, size_t size)
{
    return PyByteArray_FromStringAndSize((const char *)p,
                                         n * (Py_ssize_t)size);
}

/* args: codes (y*), itemsize (i), d (n), n_rows (n), idx0 int64 (y*),
 *       grad float64[n_rows] (y*), hess float64[n_rows] (y*),
 *       features int64[F] (y*), n_bins_f int64[F] (y*), max_leaves (n),
 *       max_depth (n, -1 = none), min_child_weight (d), reg_alpha (d),
 *       reg_lambda (d), min_gain (d), eps (d), leaf_wise (i),
 *       min_samples_leaf (n), subtract (i), hist_cache_bytes (n),
 *       out_leaf int32[n_rows] (w*), has_out_leaf (i)
 * returns bytearrays (feature int32, threshold int64, left int32,
 *       right int32, value float64) of the grown tree's nodes.
 */
static PyObject *
py_grow_tree(PyObject *self, PyObject *args)
{
    Py_buffer codes, idx0, grad, hess, feats, nbf, out_leaf;
    grow_t s;
    int has_out;
    Py_ssize_t k;
    PyObject *result = NULL;

    memset(&s, 0, sizeof(s));
    if (!PyArg_ParseTuple(args, "y*inny*y*y*y*y*nndddddininw*i",
                          &codes, &s.itemsize, &s.d, &s.n_rows, &idx0,
                          &grad, &hess, &feats, &nbf, &s.max_leaves,
                          &s.max_depth, &s.mcw, &s.alpha, &s.lam,
                          &s.min_gain, &s.eps, &s.leaf_wise, &s.msl,
                          &s.subtract, &s.cache_bytes, &out_leaf, &has_out))
        return NULL;
    s.codes = codes.buf;
    s.idx0 = (const int64_t *)idx0.buf;
    s.m = idx0.len / (Py_ssize_t)sizeof(int64_t);
    s.grad = (const double *)grad.buf;
    s.hess = (const double *)hess.buf;
    s.feats = (const int64_t *)feats.buf;
    s.nbf = (const int64_t *)nbf.buf;
    s.F = feats.len / (Py_ssize_t)sizeof(int64_t);
    s.out_leaf = has_out ? (int32_t *)out_leaf.buf : NULL;
    for (k = 0; k < s.F; k++) {
        if (s.feats[k] < 0 || s.feats[k] >= s.d) {
            PyErr_SetString(PyExc_IndexError, "feature index out of range");
            goto release;
        }
        if (s.nbf[k] > s.nbmax)
            s.nbmax = (Py_ssize_t)s.nbf[k];
    }
    if (codes.len != s.n_rows * s.d * s.itemsize
        || grad.len != s.n_rows * (Py_ssize_t)sizeof(double)
        || hess.len != s.n_rows * (Py_ssize_t)sizeof(double)
        || (has_out && out_leaf.len != s.n_rows * (Py_ssize_t)sizeof(int32_t))) {
        PyErr_SetString(PyExc_ValueError,
                        "codes/grad/hess/out_leaf disagree on the row count");
        goto release;
    }
    s.hist_len = (s.msl > 1 ? 3 : 2) * s.F * s.nbmax;

    Py_BEGIN_ALLOW_THREADS
    grow_core(&s);
    Py_END_ALLOW_THREADS

    if (s.err == GROW_NOMEM)
        PyErr_NoMemory();
    else if (s.err == GROW_BAD_INDEX)
        PyErr_SetString(PyExc_IndexError, "sample index out of range");
    else if (s.err == GROW_ZERO_DIV)
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    else
        result = Py_BuildValue(
            "(NNNNN)", bytes_of(s.feature, s.n_nodes, sizeof(int32_t)),
            bytes_of(s.threshold, s.n_nodes, sizeof(int64_t)),
            bytes_of(s.left, s.n_nodes, sizeof(int32_t)),
            bytes_of(s.right, s.n_nodes, sizeof(int32_t)),
            bytes_of(s.value, s.n_nodes, sizeof(double)));

    for (k = s.q_head; k < s.q_head + s.q_size; k++)
        free(s.queue[k].hist);
    free(s.queue);
    free(s.spare);
    free(s.ix);
    free(s.tmp);
    free(s.feature);
    free(s.threshold);
    free(s.left);
    free(s.right);
    free(s.value);
    free(s.lo);
    free(s.hi);
release:
    PyBuffer_Release(&codes);
    PyBuffer_Release(&idx0);
    PyBuffer_Release(&grad);
    PyBuffer_Release(&hess);
    PyBuffer_Release(&feats);
    PyBuffer_Release(&nbf);
    PyBuffer_Release(&out_leaf);
    return result;
}

/* ------------------------------------------------------------------ */
/* one whole level of an oblivious tree: node totals, joint
 * (node, feature, bin) histograms, summed per-node gains, per-feature
 * argmax and the sequential accept walk -- all fused.
 *
 * args: codes_f (y*, n x F gathered candidate columns), itemsize (i),
 *       node int64[n] (y*), grad float64[n] (y*), hess float64[n] (y*),
 *       n_bins_f int64[F] (y*), F (n), m (n), nbmax (n),
 *       min_child_weight (d), reg_lambda (d), eps (d)
 * returns (gain, j, t); j = -1 when no level split is accepted.
 */
static PyObject *
py_oblivious_level(PyObject *self, PyObject *args)
{
    Py_buffer codes, node, grad, hess, nbf;
    int itemsize;
    Py_ssize_t F, m, nbmax;
    double mcw, lam, eps;
    double *Gn = NULL, *hist = NULL, *total = NULL;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*iy*y*y*y*nnnddd",
                          &codes, &itemsize, &node, &grad, &hess, &nbf,
                          &F, &m, &nbmax, &mcw, &lam, &eps))
        return NULL;

    {
        const int64_t *nd = (const int64_t *)node.buf;
        const double *gp = (const double *)grad.buf;
        const double *hp = (const double *)hess.buf;
        const int64_t *nb = (const int64_t *)nbf.buf;
        const Py_ssize_t n = node.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t T = nbmax - 1;
        double *Hn, *hist2;
        double bestg = 0.0;
        Py_ssize_t bj = -1, bt = -1;
        Py_ssize_t r, j, t, k;

        Gn = (double *)calloc((size_t)(2 * m), sizeof(double));
        hist = (double *)calloc((size_t)(2 * m * F * nbmax), sizeof(double));
        total = (double *)calloc((size_t)(F * T), sizeof(double));
        if (!Gn || !hist || !total) {
            PyErr_NoMemory();
            goto cleanup;
        }
        Hn = Gn + m;
        hist2 = hist + m * F * nbmax;

        /* node totals + joint histograms, both accumulated in row
         * order per bucket (== np.bincount over concatenated keys) */
        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const Py_ssize_t nk = (Py_ssize_t)nd[r];
                const double gv = gp[r], hv = hp[r];
                const uint8_t *row = cp + r * F;
                double *bg = hist + nk * F * nbmax;
                double *bh = hist2 + nk * F * nbmax;
                Gn[nk] += gv;
                Hn[nk] += hv;
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[j];
                    bg[o] += gv;
                    bh[o] += hv;
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const Py_ssize_t nk = (Py_ssize_t)nd[r];
                const double gv = gp[r], hv = hp[r];
                const uint16_t *row = cp + r * F;
                double *bg = hist + nk * F * nbmax;
                double *bh = hist2 + nk * F * nbmax;
                Gn[nk] += gv;
                Hn[nk] += hv;
                for (j = 0; j < F; j++) {
                    const Py_ssize_t o = j * nbmax + (Py_ssize_t)row[j];
                    bg[o] += gv;
                    bh[o] += hv;
                }
            }
        }

        /* total[j,t] = sum over nodes of (valid ? gain : 0.0), node
         * order, starting from +0.0 (numpy's axis-0 reduce) */
        for (k = 0; k < m; k++) {
            /* parent = Gn**2 / (Hn + lam), numpy power-2 fast path */
            const double parentk = (Gn[k] * Gn[k]) / (Hn[k] + lam);
            const double Gk = Gn[k], Hk = Hn[k];
            for (j = 0; j < F; j++) {
                const double *bg = hist + (k * F + j) * nbmax;
                const double *bh = hist2 + (k * F + j) * nbmax;
                double *tj = total + j * T;
                double gl = 0.0, hl = 0.0;
                for (t = 0; t < T; t++) {
                    double hr, v;
                    gl += bg[t];
                    hl += bh[t];
                    hr = Hk - hl;
                    if (hl >= mcw && hr >= mcw) {
                        /* same association as gains = GL**2; /= HL+lam;
                         * tmp = GR**2; /= HR+lam; gains += tmp;
                         * gains -= parent; gains *= 0.5 */
                        double gr = Gk - gl;
                        double a = (gl * gl) / (hl + lam);
                        double b = (gr * gr) / (hr + lam);
                        v = ((a + b) - parentk) * 0.5;
                    } else {
                        v = 0.0;
                    }
                    tj[t] += v;
                }
            }
        }

        /* per-feature argmax over where(t_valid, total, -inf), then the
         * sequential accept walk: take feature j's best iff it beats
         * the running best by more than eps */
        for (j = 0; j < F; j++) {
            const double *tj = total + j * T;
            const Py_ssize_t tmax = (Py_ssize_t)nb[j] - 1;
            double mp = (0 < tmax) ? tj[0] : -INFINITY;
            Py_ssize_t mi = 0;
            if (!isnan(mp)) {
                for (t = 1; t < T; t++) {
                    const double v = (t < tmax) ? tj[t] : -INFINITY;
                    if (v > mp || isnan(v)) {
                        mp = v;
                        mi = t;
                        if (isnan(v))
                            break;
                    }
                }
            }
            if (mp > bestg + eps) {
                bestg = mp;
                bj = j;
                bt = mi;
            }
        }
        result = Py_BuildValue("dnn", bestg, bj, bt);
    }

cleanup:
    free(Gn);
    free(hist);
    free(total);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&node);
    PyBuffer_Release(&grad);
    PyBuffer_Release(&hess);
    PyBuffer_Release(&nbf);
    return result;
}

/* ------------------------------------------------------------------ */
/* joint (class, feature, bin) count histograms of one node.
 *
 * args: codes (y*), itemsize (i), d (n), idx int64 (y*), yk int64 (y*),
 *       w float64 (y*, ignored when has_w == 0), has_w (i),
 *       features int64 (y*), nbmax (n),
 *       out float64[K, F, nbmax] zeroed (w*)
 *
 * Equivalent numpy: one flat np.bincount over yk*(F*nbmax) + j*nbmax +
 * code keys -- each bucket accumulates its rows in idx order, exactly
 * this row-major loop.  Unweighted accumulation adds 1.0 per row,
 * matching bincount's integer counts cast to float64 (every int count
 * below 2^53 is exact).
 */
static PyObject *
py_build_class_hists(PyObject *self, PyObject *args)
{
    Py_buffer codes, idx, yk, w, feats, out;
    int itemsize, has_w;
    Py_ssize_t d, nbmax;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*iy*nw*",
                          &codes, &itemsize, &d, &idx, &yk, &w, &has_w,
                          &feats, &nbmax, &out))
        return NULL;

    {
        const int64_t *idxp = (const int64_t *)idx.buf;
        const int64_t *ykp = (const int64_t *)yk.buf;
        const double *wp = (const double *)w.buf;
        const int64_t *fp = (const int64_t *)feats.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ni = idx.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t F = feats.len / (Py_ssize_t)sizeof(int64_t);
        Py_ssize_t r, j;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint8_t *row = cp + (Py_ssize_t)idxp[r] * d;
                double *base = op + (Py_ssize_t)ykp[r] * F * nbmax;
                const double wv = has_w ? wp[r] : 1.0;
                for (j = 0; j < F; j++)
                    base[j * nbmax + (Py_ssize_t)row[fp[j]]] += wv;
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < ni; r++) {
                const uint16_t *row = cp + (Py_ssize_t)idxp[r] * d;
                double *base = op + (Py_ssize_t)ykp[r] * F * nbmax;
                const double wv = has_w ? wp[r] : 1.0;
                for (j = 0; j < F; j++)
                    base[j * nbmax + (Py_ssize_t)row[fp[j]]] += wv;
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&idx);
    PyBuffer_Release(&yk);
    PyBuffer_Release(&w);
    PyBuffer_Release(&feats);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* batched binned-code descent over a packed tree ensemble, accumulated
 * into the caller's score matrix in place.
 *
 * args: codes (y*), itemsize (i), d (n), feature int64 (y*),
 *       threshold int64 (y*), left int64 (y*), right int64 (y*),
 *       value float64[total_nodes, V] (y*), V (n),
 *       tree_offset int64[n_trees + 1] (y*), tree_class int64 (y*),
 *       lr (d), out float64[n, K] (w*), K (n)
 *
 * Node arrays are the FlatEnsemble pack: child ids absolute, leaves
 * marked feature < 0, tree_offset[t] the root of tree t.  Per row the
 * trees run in order and each contributes one lr*value product + one
 * add per touched cell -- the exact per-cell operation chain of the
 * engines' historical `scores += lr * tree.predict(codes)` loop (numpy
 * adds tree-by-tree too, so per cell the order and the two roundings
 * match).  tree_class k >= 0 touches column k with value[leaf, 0];
 * -1 adds the whole V-row (forest-probability trees).  Descent is pure
 * integer compare (code <= threshold goes left), so leaf choice is
 * exact.
 */
static PyObject *
py_ensemble_predict(PyObject *self, PyObject *args)
{
    Py_buffer codes, feat, thr, left, right, value, toff, tcls, out;
    int itemsize;
    Py_ssize_t d, V, K;
    double lr;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*y*ny*y*dw*n",
                          &codes, &itemsize, &d, &feat, &thr, &left, &right,
                          &value, &V, &toff, &tcls, &lr, &out, &K))
        return NULL;

    {
        const int64_t *fe = (const int64_t *)feat.buf;
        const int64_t *th = (const int64_t *)thr.buf;
        const int64_t *lf = (const int64_t *)left.buf;
        const int64_t *rt = (const int64_t *)right.buf;
        const double *val = (const double *)value.buf;
        const int64_t *off = (const int64_t *)toff.buf;
        const int64_t *cls = (const int64_t *)tcls.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ntrees = tcls.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t n = (K > 0)
            ? out.len / ((Py_ssize_t)sizeof(double) * K) : 0;
        Py_ssize_t r, t, c;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint8_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t node = off[t];
                    while (fe[node] >= 0)
                        node = ((int64_t)row[fe[node]] <= th[node])
                            ? lf[node] : rt[node];
                    {
                        const double *v = val + (Py_ssize_t)node * V;
                        const int64_t k = cls[t];
                        if (k < 0)
                            for (c = 0; c < V; c++)
                                orow[c] += lr * v[c];
                        else
                            orow[k] += lr * v[0];
                    }
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint16_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t node = off[t];
                    while (fe[node] >= 0)
                        node = ((int64_t)row[fe[node]] <= th[node])
                            ? lf[node] : rt[node];
                    {
                        const double *v = val + (Py_ssize_t)node * V;
                        const int64_t k = cls[t];
                        if (k < 0)
                            for (c = 0; c < V; c++)
                                orow[c] += lr * v[c];
                        else
                            orow[k] += lr * v[0];
                    }
                }
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&feat);
    PyBuffer_Release(&thr);
    PyBuffer_Release(&left);
    PyBuffer_Release(&right);
    PyBuffer_Release(&value);
    PyBuffer_Release(&toff);
    PyBuffer_Release(&tcls);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* oblivious-table lookup over a packed symmetric-tree ensemble:
 * per-level bit pack of the leaf index + leaf-table gather, accumulated
 * into the caller's score matrix in place.
 *
 * args: codes (y*), itemsize (i), d (n), features int64 (y*),
 *       thresholds int64 (y*), level_offset int64[n_trees + 1] (y*),
 *       leaf_values float64 flat (y*), leaf_offset int64[n_trees + 1]
 *       (y*), tree_class int64 (y*), lr (d), out float64[n, K] (w*),
 *       K (n)
 *
 * FlatOblivious pack: tree t's per-depth splits are levels
 * level_offset[t]..level_offset[t+1] and its 2^depth leaf table starts
 * at leaf_offset[t].  Leaf index is the exact integer bit pack of
 * ObliviousTree.leaf_index ((code > threshold) << lvl); the accumulate
 * is one lr*leaf product + one add per (row, tree), tree order -- the
 * engines' historical per-cell chain.
 */
static PyObject *
py_oblivious_predict(PyObject *self, PyObject *args)
{
    Py_buffer codes, feat, thr, loff, leaf, lfoff, tcls, out;
    int itemsize;
    Py_ssize_t d, K;
    double lr;

    if (!PyArg_ParseTuple(args, "y*iny*y*y*y*y*y*dw*n",
                          &codes, &itemsize, &d, &feat, &thr, &loff, &leaf,
                          &lfoff, &tcls, &lr, &out, &K))
        return NULL;

    {
        const int64_t *fe = (const int64_t *)feat.buf;
        const int64_t *th = (const int64_t *)thr.buf;
        const int64_t *lo = (const int64_t *)loff.buf;
        const double *lv = (const double *)leaf.buf;
        const int64_t *fo = (const int64_t *)lfoff.buf;
        const int64_t *cls = (const int64_t *)tcls.buf;
        double *op = (double *)out.buf;
        const Py_ssize_t ntrees = tcls.len / (Py_ssize_t)sizeof(int64_t);
        const Py_ssize_t n = (K > 0)
            ? out.len / ((Py_ssize_t)sizeof(double) * K) : 0;
        Py_ssize_t r, t, l;

        if (itemsize == 1) {
            const uint8_t *cp = (const uint8_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint8_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t idx = 0;
                    const Py_ssize_t l0 = (Py_ssize_t)lo[t];
                    const Py_ssize_t l1 = (Py_ssize_t)lo[t + 1];
                    for (l = l0; l < l1; l++)
                        idx |= (int64_t)((int64_t)row[fe[l]] > th[l])
                            << (l - l0);
                    orow[cls[t]] += lr * lv[(Py_ssize_t)fo[t] + idx];
                }
            }
        } else {
            const uint16_t *cp = (const uint16_t *)codes.buf;
            for (r = 0; r < n; r++) {
                const uint16_t *row = cp + r * d;
                double *orow = op + r * K;
                for (t = 0; t < ntrees; t++) {
                    int64_t idx = 0;
                    const Py_ssize_t l0 = (Py_ssize_t)lo[t];
                    const Py_ssize_t l1 = (Py_ssize_t)lo[t + 1];
                    for (l = l0; l < l1; l++)
                        idx |= (int64_t)((int64_t)row[fe[l]] > th[l])
                            << (l - l0);
                    orow[cls[t]] += lr * lv[(Py_ssize_t)fo[t] + idx];
                }
            }
        }
    }

    PyBuffer_Release(&codes);
    PyBuffer_Release(&feat);
    PyBuffer_Release(&thr);
    PyBuffer_Release(&loff);
    PyBuffer_Release(&leaf);
    PyBuffer_Release(&lfoff);
    PyBuffer_Release(&tcls);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
static PyMethodDef kernel_methods[] = {
    {"bin_codes", py_bin_codes, METH_VARARGS,
     "Bin a float block into missing-aware codes (GIL released)."},
    {"grow_tree", py_grow_tree, METH_VARARGS,
     "Grow one whole gradient tree (GIL released)."},
    {"build_hists", py_build_hists, METH_VARARGS,
     "Accumulate (grad, hess[, count]) node histograms in row order."},
    {"best_split_scan", py_best_split_scan, METH_VARARGS,
     "Best (gain, feature, threshold) over cumulative histograms."},
    {"oblivious_level", py_oblivious_level, METH_VARARGS,
     "Score one whole oblivious-tree level."},
    {"build_class_hists", py_build_class_hists, METH_VARARGS,
     "Accumulate joint (class, feature, bin) node histograms."},
    {"ensemble_predict", py_ensemble_predict, METH_VARARGS,
     "Batched binned-code descent over a packed tree ensemble."},
    {"oblivious_predict", py_oblivious_predict, METH_VARARGS,
     "Oblivious leaf-table lookup over a packed symmetric ensemble."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_repro_native",
    "Compiled binning/histogram/split kernels (bitwise-equal to "
    "repro.native.fallback).",
    -1, kernel_methods,
};

PyMODINIT_FUNC
PyInit__repro_native(void)
{
    return PyModule_Create(&kernel_module);
}

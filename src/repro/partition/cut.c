/* The geometric partitioner's bisection tree, behind
 * repro.partition.geometric.
 *
 * cut_tree runs a whole subtree of recursive_bisection: every cut, in
 * the recursion's order (the right side's subtree first), each one the
 * lift of the element centroids (read through the cut's ids), the
 * centerpoint, the conformal map and the scoring of every candidate
 * circle; each side's ids are reordered in place and the parts are
 * written at the leaves.  It calls no malloc: each cut works on its own
 * slice of the caller's buffers, so two subtrees run at once on two
 * threads.  The passes are static functions; cut_lift, cut_weiszfeld,
 * cut_conformal, cut_map (lift, centerpoint and map), cut_score,
 * cut_split and cut_left_size wrap the same functions for the root cut
 * ahead of the two subtrees, the public helpers and the tests, so each
 * pass has one implementation.  The root cut is the one cut whose
 * inputs repeat across a p sweep (every even p draws the same first
 * row and puts half the elements on the left), so geometric.py keeps
 * its left side per mesh, packed a bit per element, and skips
 * cut_map / cut_score / cut_split when it has it.
 *
 * Residency.  incidence_rows and incidence_parts build a partition's
 * node -> part incidence (repro.partition.metrics.node_part_incidence)
 * as canonical CSR without a sort: in element order, each element's
 * part bit is ORed into ceil(p / 64) words per corner node; popcount
 * then gives the row pointers, and the set bits, lowest first, each
 * row's parts in ascending order.
 *
 * Every float operation is in a fixed order, the one the numpy
 * functions of geometric.py spell out:
 *
 * Lift (n points in R^3):
 *   mean                        each column summed from 0.0, rows in
 *                               order, then divided by n;
 *   radii                       sqrt((d0 d0 + d1 d1) + d2 d2);
 *   scale                       np.percentile(radii, 90): the order
 *                               statistics at floor(0.9 (n - 1)) and
 *                               the next, joined by numpy's _lerp
 *                               (a + d t below t = 0.5, b - d (1 - t)
 *                               from it); NaN when a radius is NaN;
 *   x = (pts - c) / scale;
 *   norm2                       (x0 x0 + x2 x2) + x1 x1;
 *   lifted                      (2 x) / (norm2 + 1), and the fourth
 *                               coordinate (norm2 - 1) / (norm2 + 1).
 *
 * Weiszfeld centerpoint (n points in R^4):
 *   mean                        as above;
 *   dist                        sqrt(((d0 d0 + d1 d1) + d2 d2) + d3 d3),
 *                               floored at 1e-12 (NaN stays NaN);
 *   weighted sums               each column from 0.0, rows in order;
 *   total weight                0.0 + numpy's pairwise_sum (below).
 *
 * Conformal map (the centerpoint c to the center):
 *   |c|, |v|^2                  the 4-long dot product as OpenBLAS's
 *                               ddot rounds it, one fused chain
 *                               fma(x3, x3, fma(x2, x2, fma(x1, x1,
 *                               x0 x0)));
 *   axis = c / |c|, v = axis - e3, alpha = sqrt((1 - r) / (1 + r));
 *   l . v                       (l0 v0 + l2 v2) + (l1 v1 + l3 v3), the
 *                               order of OpenBLAS's n x 4 gemv for
 *                               n >= 2;
 *   rotated                     l_j - 2 ((l . v / |v|^2) v_j);
 *   denom = max(1 - w, 1e-12)   NaN stays NaN;
 *   plane = (xyz / denom) * alpha;
 *   norm2                       (p0 p0 + p2 p2) + p1 p1;
 *   back                        (2 p_j) / (norm2 + 1) and
 *                               (norm2 - 1) / (norm2 + 1).
 *
 * Candidates: each draw's norm by the fused chain above (dropped below
 * 1e-12), the draw divided by it, then the three coordinate axes; a
 * candidate's projections by the gemv order above.
 *
 * Build with -ffp-contract=off (no fused multiply-add but the explicit
 * fma() calls) and without -ffast-math (no reassociation, no reciprocal
 * for the divisions); -fno-math-errno lets sqrt vectorize.  Lanes that
 * run across rows change no bit: each does its own operations in order.
 *
 * Scoring.  A candidate's left side is split_by_order's: the
 * target_left smallest projections, ties by index, NaN last.  Its
 * target_left-th value is an exact order statistic, so any selection
 * finds it: a sample of about n^(2/3) values, one per stratum,
 * brackets it, one pass counts the values below the bracket and keeps
 * those inside, and the same search runs inside the bracket (a copy
 * and a quickselect of everything when the bracket misses or the
 * sample holds a NaN).  Bit c of an element's flag word is "left for
 * candidate c"; one pass over the corners ORs and ANDs the words into
 * each node, listing the nodes as they are first touched, and
 * shared = OR & ~AND is counted bit by bit over the list.  The first
 * candidate with the strictly fewest shared nodes wins.  Candidates
 * go 63 at a time, two to each pass over the mapped points: bit 63
 * keeps the best one's left side so far, which is the cut's result.
 *
 * The tree.  A cut of n elements into q parts puts round(n ceil(q/2)
 * / q) of them on the left (rint of the correctly rounded quotient:
 * Python's round, half to even).  The cuts' candidate draws are one
 * (q - 1) x num_draws x 4 table in the recursion's order: a cut's
 * right subtree takes the next q - ceil(q/2) - 1 cuts' draws, then its
 * left subtree the rest.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include "../native.h"

/* ---- The owned orders --------------------------------------------- */

/* l . u for one row of an n x 4 table, in OpenBLAS's gemv order. */
static inline double dot4(const double *l, const double *u)
{
    return (l[0] * u[0] + l[2] * u[2]) + (l[1] * u[1] + l[3] * u[3]);
}

/* x . x for a 4-vector, in OpenBLAS's ddot order. */
static inline double sumsq4(const double *x)
{
    return fma(x[3], x[3], fma(x[2], x[2], fma(x[1], x[1], x[0] * x[0])));
}

/* ---- Selection ------------------------------------------------------ */

static inline void swap(double *a, double *b)
{
    const double t = *a;
    *a = *b;
    *b = t;
}

/* Sift-down of a max-heap over a[0..n). */
static void sift(double *a, int64_t root, int64_t n)
{
    for (;;) {
        int64_t child = 2 * root + 1;
        if (child >= n)
            return;
        if (child + 1 < n && a[child] < a[child + 1])
            child++;
        if (!(a[root] < a[child]))
            return;
        swap(a + root, a + child);
        root = child;
    }
}

/* Sorts a[0..n) (no NaN) by heapsort: quickselect's fallback. */
static void heapsort(double *a, int64_t n)
{
    for (int64_t i = n / 2 - 1; i >= 0; i--)
        sift(a, i, n);
    for (int64_t end = n - 1; end > 0; end--) {
        swap(a, a + end);
        sift(a, 0, end);
    }
}

/* Permutes a[0..n) (no NaN) so that a[k] is its k-th smallest, none
 * before it larger and none after it smaller.  Median-of-three
 * quickselect, heapsort once the ranges stop shrinking. */
static void select_inplace(double *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    int budget = 2 * 64;
    while (hi - lo > 16) {
        if (--budget == 0) {
            heapsort(a + lo, hi - lo + 1);
            return;
        }
        const int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < a[lo])
            swap(a + mid, a + lo);
        if (a[hi] < a[lo])
            swap(a + hi, a + lo);
        if (a[hi] < a[mid])
            swap(a + hi, a + mid);
        const double pivot = a[mid];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot)
                i++;
            while (pivot < a[j])
                j--;
            if (i <= j) {
                swap(a + i, a + j);
                i++;
                j--;
            }
        }
        /* a[lo..j] <= pivot <= a[i..hi], and a[j+1..i-1] == pivot. */
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            return;
    }
    for (int64_t i = lo + 1; i <= hi; i++) {
        const double x = a[i];
        int64_t j = i;
        for (; j > lo && x < a[j - 1]; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

/* Moves the NaNs of a[0..n) to its end; returns the count of others. */
static int64_t nans_last(double *a, int64_t n)
{
    int64_t nans = 0;
    for (int64_t i = 0; i < n; i++)
        nans += isnan(a[i]);
    if (nans == 0)
        return n;
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++)
        if (!isnan(a[i]))
            swap(a + m++, a + i);
    return m;
}

/* The k-th smallest (0-based) of x[0..n), NaN last, into *kth and the
 * counts of the values before it in that order and tied with it into
 * *less and *tied (NaNs tie with a NaN); work holds n doubles (x may
 * not overlap it). */
static void kth_smallest(const double *x, int64_t n, int64_t k, double *work,
                         double *kth, int64_t *less, int64_t *tied)
{
    if (n >= 2048) {
        /* About n^(2/3) values, one from each run of 2^shift at a
         * pseudo-random offset (a fixed stride would alias with the
         * mesh's element order). */
        const int shift = (65 - __builtin_clzll((uint64_t)n)) / 3;
        const int64_t s = n >> shift;
        uint64_t state = 0x9E3779B97F4A7C15u;
        int nan_free = 1;
        for (int64_t i = 0; i < s; i++) {
            state = state * 6364136223846793005u + 1442695040888963407u;
            work[i] = x[(i << shift) + (int64_t)(state >> (64 - shift))];
            nan_free &= !isnan(work[i]);
        }
        if (nan_free) {
            /* The sample's ranks around k's share, 4 sigma either way. */
            const int64_t at = (int64_t)((double)k * (double)s / (double)n);
            const int64_t margin = 2 * (int64_t)sqrt((double)s) + 16;
            const int64_t r_lo = at - margin, r_hi = at + margin;
            double lo = -INFINITY, hi = INFINITY;
            if (r_hi < s) {
                select_inplace(work, s, r_hi);
                hi = work[r_hi];
            }
            if (r_lo >= 0) {
                select_inplace(work, r_hi < s ? r_hi : s, r_lo);
                lo = work[r_lo];
            }
            /* Counts the values below the bracket and keeps those in it:
             * a bit per value for each block of 64, then the set bits. */
            int64_t below = 0, inside = 0;
            for (int64_t start = 0; start < n; start += 64) {
                const int64_t width = n - start < 64 ? n - start : 64;
                const double *v = x + start;
                uint64_t in = 0;
                for (int64_t i = 0; i < width; i++) {
                    below += v[i] < lo;
                    in |= (uint64_t)((v[i] >= lo) & (v[i] <= hi)) << i;
                }
                for (; in; in &= in - 1)
                    work[inside++] = v[__builtin_ctzll(in)];
            }
            /* The bracket holds the rank: the same search inside it,
             * with the rest of work as its own. */
            if (below <= k && k < below + inside && 2 * inside <= n) {
                kth_smallest(work, inside, k - below, work + inside, kth, less,
                             tied);
                *less += below;
                return;
            }
        }
    }
    memcpy(work, x, (size_t)n * sizeof(double));
    const int64_t m = nans_last(work, n);
    if (k >= m) {
        *kth = NAN;
        *less = m;
        *tied = n - m;
        return;
    }
    select_inplace(work, m, k);
    const double value = work[k];
    int64_t under = 0, equal = 0;
    for (int64_t i = 0; i < m; i++) {
        under += work[i] < value;
        equal += work[i] == value;
    }
    *kth = value;
    *less = under;
    *tied = equal;
}

/* ---- The lift ------------------------------------------------------- */

/* np.percentile(radii, 90) of radii[0..n), n >= 1 (radii permuted). */
static double percentile90(double *radii, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (isnan(radii[i]))
            return NAN;
    const double at = (double)(n - 1) * 0.9;
    int64_t below, above;
    double t;
    if (at >= (double)(n - 1)) {
        /* numpy's index -1 for both ends, and gamma = at - (-1). */
        below = above = n - 1;
        t = at + 1.0;
    } else {
        below = (int64_t)floor(at);
        above = below + 1;
        t = at - (double)below;
    }
    select_inplace(radii, n, below);
    const double a = radii[below];
    double b = a;
    if (above != below) {
        b = radii[above];
        for (int64_t i = above + 1; i < n; i++)
            b = radii[i] < b ? radii[i] : b;
    }
    const double d = b - a;
    return t >= 0.5 ? b - d * (1.0 - t) : a + d * t;
}

/* Row i of the cut's points: pts[ids[i]], or pts[i] without ids. */
static inline const double *row3(const double *pts, const int64_t *ids,
                                 int64_t i)
{
    return pts + 3 * (ids != NULL ? ids[i] : i);
}

/* The stereographic lift of the n points pts[ids] (n >= 1) into lifted
 * (n x 4); radii is scratch for n doubles. */
static void lift(int64_t n, const double *pts, const int64_t *ids,
                 double *radii, double *lifted)
{
    double sum[3] = {0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; i++) {
        const double *p = row3(pts, ids, i);
        for (int j = 0; j < 3; j++)
            sum[j] += p[j];
    }
    const double c0 = sum[0] / (double)n, c1 = sum[1] / (double)n,
                 c2 = sum[2] / (double)n;
    for (int64_t i = 0; i < n; i++) {
        const double *p = row3(pts, ids, i);
        const double d0 = p[0] - c0, d1 = p[1] - c1, d2 = p[2] - c2;
        radii[i] = sqrt((d0 * d0 + d1 * d1) + d2 * d2);
    }
    double scale = percentile90(radii, n);
    scale = scale <= 0.0 ? 1.0 : scale;
    for (int64_t i = 0; i < n; i++) {
        const double *p = row3(pts, ids, i);
        const double x0 = (p[0] - c0) / scale, x1 = (p[1] - c1) / scale,
                     x2 = (p[2] - c2) / scale;
        const double norm2 = (x0 * x0 + x2 * x2) + x1 * x1;
        const double denom = norm2 + 1.0;
        double *out = lifted + 4 * i;
        out[0] = (2.0 * x0) / denom;
        out[1] = (2.0 * x1) / denom;
        out[2] = (2.0 * x2) / denom;
        out[3] = (norm2 - 1.0) / denom;
    }
}

/* ---- The centerpoint ------------------------------------------------ */

/* Rows per block of weiszfeld: weights, then sums, while the block is
 * in cache. */
#define ROWS 32

typedef double double4 __attribute__((vector_size(4 * sizeof(double))));

/* numpy's pairwise_sum (umath loops, PW_BLOCKSIZE 128) over a[0..n). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* The centerpoint of pts (n x 4, n >= 1) after `iterations` steps into
 * guess[4]; w is scratch for n weights. */
static void weiszfeld(int64_t n, const double *pts, int64_t iterations,
                      double *w, double *guess)
{
    double sum[4] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; i++)
        for (int j = 0; j < 4; j++)
            sum[j] += pts[4 * i + j];
    for (int j = 0; j < 4; j++)
        guess[j] = sum[j] / (double)n;
    for (int64_t it = 0; it < iterations; it++) {
        const double g0 = guess[0], g1 = guess[1], g2 = guess[2],
                     g3 = guess[3];
        /* The four column sums in the lanes of one vector. */
        double4 acc = {0.0, 0.0, 0.0, 0.0};
        for (int64_t lo = 0; lo < n; lo += ROWS) {
            const int64_t hi = lo + ROWS < n ? lo + ROWS : n;
            for (int64_t i = lo; i < hi; i++) {
                const double *p = pts + 4 * i;
                const double d0 = p[0] - g0, d1 = p[1] - g1,
                             d2 = p[2] - g2, d3 = p[3] - g3;
                double dist = sqrt(((d0 * d0 + d1 * d1) + d2 * d2) + d3 * d3);
                /* np.maximum: a NaN distance stays NaN. */
                dist = dist < 1e-12 ? 1e-12 : dist;
                w[i] = 1.0 / dist;
            }
            for (int64_t i = lo; i < hi; i++) {
                double4 row;
                memcpy(&row, pts + 4 * i, sizeof row);
                acc += row * w[i];
            }
        }
        const double total = 0.0 + pairwise_sum(w, n);
        for (int j = 0; j < 4; j++)
            guess[j] = acc[j] / total;
    }
}

/* ---- The conformal map ---------------------------------------------- */

/* The conformal map moving center to the sphere's center, applied to
 * lifted (n x 4) into back (n x 4; lifted itself is allowed).  Returns
 * 0, writing nothing, when center already is the center. */
static int conformal(int64_t n, const double *lifted, const double *center,
                     double *back)
{
    const double norm = sqrt(sumsq4(center));
    if (norm < 1e-12)
        return 0;
    const double r = 1.0 - 1e-9 < norm ? 1.0 - 1e-9 : norm;
    double v[4];
    for (int j = 0; j < 4; j++)
        v[j] = center[j] / norm;
    v[3] -= 1.0;
    const double vnorm2 = sumsq4(v);
    const int rotate = !(vnorm2 < 1e-24);
    const double alpha = sqrt((1.0 - r) / (1.0 + r));
    for (int64_t i = 0; i < n; i++) {
        const double *l = lifted + 4 * i;
        double q[4];
        if (rotate) {
            const double t = dot4(l, v) / vnorm2;
            for (int j = 0; j < 4; j++)
                q[j] = l[j] - 2.0 * (t * v[j]);
        } else {
            for (int j = 0; j < 4; j++)
                q[j] = l[j];
        }
        double denom = 1.0 - q[3];
        /* np.maximum: a NaN stays NaN. */
        denom = denom < 1e-12 ? 1e-12 : denom;
        const double p0 = (q[0] / denom) * alpha, p1 = (q[1] / denom) * alpha,
                     p2 = (q[2] / denom) * alpha;
        const double norm2 = (p0 * p0 + p2 * p2) + p1 * p1;
        double *out = back + 4 * i;
        out[0] = (2.0 * p0) / (norm2 + 1.0);
        out[1] = (2.0 * p1) / (norm2 + 1.0);
        out[2] = (2.0 * p2) / (norm2 + 1.0);
        out[3] = (norm2 - 1.0) / (norm2 + 1.0);
    }
    return 1;
}

/* ---- The candidates ------------------------------------------------- */

/* Sets bit `bit` of flags[i] for the target smallest of proj[0..n),
 * ties by index, NaN last (split_by_order's rule); work holds n
 * doubles.  target >= 1. */
static void mark_left(int64_t n, const double *proj, int64_t target,
                      double *work, int bit, uint64_t *flags)
{
    double kth;
    int64_t less, tied;
    kth_smallest(proj, n, target - 1, work, &kth, &less, &tied);
    if (less + tied == target) {
        /* Every tie is taken. */
        if (isnan(kth)) {
            for (int64_t i = 0; i < n; i++)
                flags[i] |= (uint64_t)1 << bit;
        } else {
            for (int64_t i = 0; i < n; i++)
                flags[i] |= (uint64_t)(proj[i] <= kth) << bit;
        }
        return;
    }
    int64_t ties = target - less;
    for (int64_t i = 0; i < n; i++) {
        const double x = proj[i];
        const int tie = isnan(kth) ? isnan(x) : x == kth;
        int take = isnan(kth) ? !isnan(x) : x < kth;
        if (tie && ties > 0) {
            take = 1;
            ties--;
        }
        flags[i] |= (uint64_t)take << bit;
    }
}

/* The unit normals of draws (num_draws x 4) whose norm is at least
 * 1e-12, then the three coordinate axes, into units; returns their
 * count (num_draws + 3 at most). */
static int64_t candidate_units(int64_t num_draws, const double *draws,
                               double *units)
{
    int64_t k = 0;
    for (int64_t i = 0; i < num_draws; i++) {
        const double *d = draws + 4 * i;
        const double norm = sqrt(sumsq4(d));
        if (norm >= 1e-12) {
            for (int j = 0; j < 4; j++)
                units[4 * k + j] = d[j] / norm;
            k++;
        }
    }
    for (int axis = 0; axis < 3; axis++, k++)
        for (int j = 0; j < 4; j++)
            units[4 * k + j] = j == axis ? 1.0 : 0.0;
    return k;
}

/* Bit 63 of a flag word: "left for the best candidate so far"; the
 * other 63 bits hold one candidate each. */
#define BEST ((uint64_t)1 << 63)
#define WIDTH 63

/* Scores the k >= 1 candidates units on mapped (n x 4, n >= 1), the
 * elements ids of tets, two candidates to each pass over mapped: leaves
 * the left side of the first with the fewest shared nodes in bit 63 of
 * flags and returns its index.  work holds 3n doubles, flags n words,
 * acc 2 num_nodes words (each node's OR and AND, which are 0 and ~0 on
 * entry and again on return) and nodes num_nodes + 1. */
static int64_t score(int64_t n, const double *mapped, const int64_t *tets,
                     const int64_t *ids, int64_t target_left,
                     const double *units, int64_t k, double *work,
                     uint64_t *flags, uint64_t *acc, int64_t *nodes)
{
    double *proj = work, *next = work + n, *rest = work + 2 * n;
    int64_t best = -1, best_cost = 0;
    for (int64_t first = 0; first < k; first += WIDTH) {
        const int width = k - first < WIDTH ? (int)(k - first) : WIDTH;
        if (first == 0)
            memset(flags, 0, (size_t)n * sizeof(uint64_t));
        else
            for (int64_t i = 0; i < n; i++)
                flags[i] &= BEST;
        for (int c = 0; target_left > 0 && c < width; c += 2) {
            const double *u = units + 4 * (first + c);
            if (c + 1 < width) {
                for (int64_t i = 0; i < n; i++) {
                    proj[i] = dot4(mapped + 4 * i, u);
                    next[i] = dot4(mapped + 4 * i, u + 4);
                }
                mark_left(n, next, target_left, rest, c + 1, flags);
            } else {
                for (int64_t i = 0; i < n; i++)
                    proj[i] = dot4(mapped + 4 * i, u);
            }
            mark_left(n, proj, target_left, rest, c, flags);
        }
        /* Each node's OR and AND over its corners, listing the nodes
         * as they are first touched (an untouched node holds (0, ~0),
         * which no touch leaves; the list's store is unconditional, so
         * it takes one slot more than there are nodes). */
        int64_t m = 0;
        for (int64_t e = 0; e < n; e++) {
            const int64_t *corner = tets + 4 * ids[e];
            const uint64_t f = flags[e];
            for (int j = 0; j < 4; j++) {
                uint64_t *node = acc + 2 * corner[j];
                nodes[m] = corner[j];
                m += (node[0] == 0) & (node[1] == ~(uint64_t)0);
                node[0] |= f;
                node[1] &= f;
            }
        }
        int64_t counts[WIDTH] = {0};
        for (int64_t i = 0; i < m; i++) {
            uint64_t *node = acc + 2 * nodes[i];
            for (uint64_t shared = node[0] & ~node[1] & ~BEST; shared;
                 shared &= shared - 1)
                counts[__builtin_ctzll(shared)]++;
            node[0] = 0;
            node[1] = ~(uint64_t)0;
        }
        int winner = -1;
        for (int c = 0; c < width; c++)
            if (best < 0 || counts[c] < best_cost) {
                best = first + c;
                best_cost = counts[c];
                winner = c;
            }
        if (winner >= 0)
            for (int64_t i = 0; i < n; i++)
                flags[i] = (flags[i] & ~BEST) | ((flags[i] >> winner) & 1) << 63;
    }
    return best;
}

/* ---- The cut -------------------------------------------------------- */

/* Whether every id is an element of a table of num_elements rows. */
static int ids_in_range(int64_t n, const int64_t *ids, int64_t num_elements)
{
    for (int64_t e = 0; e < n; e++)
        if (ids[e] < 0 || ids[e] >= num_elements)
            return 0;
    return 1;
}

/* Whether every id is an element of tets (num_elements x 4) and every
 * corner of those a node in [0, num_nodes). */
static int in_range(int64_t n, const int64_t *tets, int64_t num_elements,
                    const int64_t *ids, int64_t num_nodes)
{
    if (!ids_in_range(n, ids, num_elements))
        return 0;
    for (int64_t e = 0; e < n; e++) {
        const int64_t *corner = tets + 4 * ids[e];
        for (int j = 0; j < 4; j++)
            if (corner[j] < 0 || corner[j] >= num_nodes)
                return 0;
    }
    return 1;
}

/* The first half of a cut of the elements ids (n >= 1), whose
 * centroids are rows of centroids: the lift, the centerpoint after
 * `iterations` steps and the conformal map into mapped (n x 4), and the
 * candidate units of num_draws draws into units; returns their count.
 * work holds n doubles. */
static int64_t map_cut(int64_t n, const double *centroids, const int64_t *ids,
                       int64_t iterations, int64_t num_draws,
                       const double *draws, double *mapped, double *units,
                       double *work)
{
    double center[4];
    lift(n, centroids, ids, work, mapped);
    weiszfeld(n, mapped, iterations, work, center);
    conformal(n, mapped, center, mapped);
    return candidate_units(num_draws, draws, units);
}

/* Reorders ids[0..n) stably, the left side (bit 63 of flags) first,
 * keeping the right side's ids in flags on the way. */
static void split(int64_t n, int64_t *ids, uint64_t *flags)
{
    int64_t left = 0, right = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t id = ids[i];
        if (flags[i] & BEST)
            ids[left++] = id;
        else
            flags[right++] = (uint64_t)id;
    }
    for (int64_t i = 0; i < right; i++)
        ids[left + i] = (int64_t)flags[i];
}

/* The left side's size when n elements go to q parts, ceil(q / 2) of
 * them on the left: n ceil(q / 2) / q, the quotient rounded once, then
 * to the nearest integer, half to even (Python's round). */
static int64_t left_size(int64_t n, int64_t q)
{
    const double share = rint((double)(n * ((q + 1) / 2)) / (double)q);
    return share <= 0.0 ? 0 : share >= (double)n ? n : (int64_t)share;
}

/* Cuts the elements ids[0..n) (n >= q) into the parts first_part ..
 * first_part + q - 1: the cut at draws (num_draws x 4), the right
 * side's subtree with the next q - ceil(q / 2) - 1 cuts' draws, then
 * the left side's with the rest, writing parts at the leaves.  Each
 * side's ids end up reordered in place, and each side works on its own
 * slice of mapped (4 doubles per element), work (4) and flags (1). */
static void tree(int64_t n, const double *centroids, const int64_t *tets,
                 int64_t *ids, int64_t first_part, int64_t q,
                 int64_t iterations, int64_t num_draws, const double *draws,
                 double *mapped, double *units, double *work, uint64_t *flags,
                 uint64_t *acc, int64_t *nodes, int32_t *parts)
{
    if (q == 1) {
        for (int64_t i = 0; i < n; i++)
            parts[ids[i]] = (int32_t)first_part;
        return;
    }
    const int64_t q_left = (q + 1) / 2, left = left_size(n, q);
    const int64_t k = map_cut(n, centroids, ids, iterations, num_draws, draws,
                              mapped, units, work);
    score(n, mapped, tets, ids, left, units, k, work, flags, acc, nodes);
    split(n, ids, flags);
    const double *next = draws + 4 * num_draws;
    tree(n - left, centroids, tets, ids + left, first_part + q_left,
         q - q_left, iterations, num_draws, next, mapped + 4 * left, units,
         work + 4 * left, flags + left, acc, nodes, parts);
    tree(left, centroids, tets, ids, first_part, q_left, iterations,
         num_draws, next + 4 * num_draws * (q - q_left - 1), mapped, units,
         work, flags, acc, nodes, parts);
}

/* ---- Entries -------------------------------------------------------- */

/* The lift of pts (n x 3, n >= 1) into lifted (n x 4); radii is
 * scratch for n doubles. */
void cut_lift(int64_t n, const double *pts, double *radii, double *lifted)
{
    lift(n, pts, NULL, radii, lifted);
}

/* The centerpoint of pts (n x 4, n >= 1) into guess[4]; w is scratch
 * for n doubles. */
void cut_weiszfeld(int64_t n, const double *pts, int64_t iterations,
                   double *w, double *guess)
{
    weiszfeld(n, pts, iterations, w, guess);
}

/* The conformal map of lifted (n x 4) into back; 0 when there is none
 * (center already is the center). */
int cut_conformal(int64_t n, const double *lifted, const double *center,
                  double *back)
{
    return conformal(n, lifted, center, back);
}

/* map_cut() on its own: -1 when an id is out of range. */
int64_t cut_map(int64_t n, const double *centroids, int64_t num_elements,
                const int64_t *ids, int64_t iterations, int64_t num_draws,
                const double *draws, double *mapped, double *units,
                double *work)
{
    if (!ids_in_range(n, ids, num_elements))
        return -1;
    return map_cut(n, centroids, ids, iterations, num_draws, draws, mapped,
                   units, work);
}

/* score() on its own: -1 when an id or a corner is out of range. */
int64_t cut_score(int64_t n, const double *mapped, const int64_t *tets,
                  int64_t num_elements, const int64_t *ids, int64_t num_nodes,
                  int64_t target_left, const double *units, int64_t k,
                  double *work, uint64_t *flags, uint64_t *acc,
                  int64_t *nodes)
{
    if (!in_range(n, tets, num_elements, ids, num_nodes))
        return -1;
    return score(n, mapped, tets, ids, target_left, units, k, work, flags,
                 acc, nodes);
}

/* split() on its own. */
void cut_split(int64_t n, int64_t *ids, uint64_t *flags)
{
    split(n, ids, flags);
}

/* left_size() on its own. */
int64_t cut_left_size(int64_t n, int64_t q)
{
    return left_size(n, q);
}

/* The subtree of recursive_bisection below the elements ids (n >= q
 * >= 1) of tets (num_elements x 4, corners in [0, num_nodes)), whose
 * centroids are the rows of centroids: every cut, in the recursion's
 * order, with the draws of its q - 1 cuts (num_draws x 4 each, in that
 * order), writing each element's part (first_part .. first_part + q -
 * 1) into parts.  Calls no malloc: mapped, work and flags hold 4n, 4n
 * and n values, units 4 (num_draws + 3), acc and nodes score()'s.
 * Returns 0, or -1, writing nothing, when an id or a corner is out of
 * range. */
int64_t cut_tree(int64_t n, const double *centroids, const int64_t *tets,
                 int64_t num_elements, int64_t *ids, int64_t num_nodes,
                 int64_t first_part, int64_t q, int64_t iterations,
                 int64_t num_draws, const double *draws, double *mapped,
                 double *units, double *work, uint64_t *flags, uint64_t *acc,
                 int64_t *nodes, int32_t *parts)
{
    if (!in_range(n, tets, num_elements, ids, num_nodes))
        return -1;
    tree(n, centroids, tets, ids, first_part, q, iterations, num_draws, draws,
         mapped, units, work, flags, acc, nodes, parts);
    return 0;
}

/* ---- Residency ------------------------------------------------------ */

/* The first pass of a partition's node -> part incidence: for each of
 * the m elements of tets, in element order, the bit of its part q
 * (parts[e], in [0, p)) ORed into word q / 64 of each corner's
 * ceil(p / 64) words (words: n of those, zeroed on entry), then
 * each node's popcount summed into indptr (n + 1).  Returns the count
 * of nonzeros, or -1 - e for the first element e with a corner outside
 * [0, n) or a part outside [0, p) (indptr is then not written). */
int64_t incidence_rows(int64_t n, int64_t m, const int64_t *tets,
                       const int32_t *parts, int64_t p, uint64_t *words,
                       int64_t *indptr)
{
    const int64_t w = (p + 63) / 64;
    for (int64_t e = 0; e < m; e++) {
        const int64_t q = parts[e];
        const int64_t *corner = tets + 4 * e;
        if (q < 0 || q >= p)
            return -1 - e;
        for (int j = 0; j < 4; j++) {
            if (corner[j] < 0 || corner[j] >= n)
                return -1 - e;
            words[w * corner[j] + (q >> 6)] |= (uint64_t)1 << (q & 63);
        }
    }
    int64_t nnz = 0;
    indptr[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        for (int64_t k = 0; k < w; k++)
            nnz += __builtin_popcountll(words[w * v + k]);
        indptr[v + 1] = nnz;
    }
    return nnz;
}

/* The second pass: each node's parts, ascending (the set bits of its
 * words, lowest first), into indices (indptr[n] of them). */
void incidence_parts(int64_t n, int64_t p, const uint64_t *words,
                     int32_t *indices)
{
    const int64_t w = (p + 63) / 64;
    int64_t at = 0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t k = 0; k < w; k++)
            for (uint64_t bits = words[w * v + k]; bits; bits &= bits - 1)
                indices[at++] = (int32_t)(64 * k + __builtin_ctzll(bits));
}

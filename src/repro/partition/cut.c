/* The geometric partitioner's five hot passes, behind
 * repro.partition.geometric.
 *
 * Each returns exactly what its numpy function returns.
 *
 * cut_lift_center / cut_lift: the stereographic lift of n points in
 * R^3 (C-contiguous n x 3), split around np.percentile, which stays in
 * numpy.  Every float operation in numpy's order:
 *
 *   pts.mean(axis=0)            each column summed from 0.0, rows in
 *                               order, then divided by n;
 *   norm(pts - c, axis=1)       sqrt((d0 d0 + d1 d1) + d2 d2);
 *   x = (pts - c) / scale;
 *   einsum("ij,ij->i", x, x)    (x0 x0 + x2 x2) + x1 x1, the order
 *                               numpy's einsum takes over three
 *                               columns (the numpy function spells it
 *                               out, so neither depends on a SIMD
 *                               dispatch);
 *   2.0 * x / denom             (2 x) / (norm2 + 1), and the fourth
 *                               coordinate (norm2 - 1) / (norm2 + 1).
 *
 * cut_conformal: the rotation and dilation of conformal_map_to_center,
 * after numpy's lifted @ v (a BLAS product: its rounding belongs to
 * the library, so it stays numpy), per row in numpy's order:
 *
 *   rotated = lifted - 2.0 * outer(proj / vnorm2, v)
 *                               l_j - 2 ((proj / vnorm2) v_j);
 *   denom = maximum(1 - w, 1e-12)   NaN stays NaN;
 *   plane = xyz / denom; plane *= alpha;
 *   norm2                       (p0 p0 + p2 p2) + p1 p1 (einsum);
 *   back                        (2 p_j) / (norm2 + 1) and
 *                               (norm2 - 1) / (norm2 + 1).
 *
 * cut_weiszfeld: the Weiszfeld centerpoint of n points in R^4, every
 * float operation in numpy's order for the same C-contiguous n x 4
 * input:
 *
 *   pts.mean(axis=0)            each column summed from 0.0, rows in
 *                               order, then divided by n;
 *   norm(pts - g, axis=1)       sqrt(((d0 d0 + d1 d1) + d2 d2) + d3 d3);
 *   np.maximum(dist, 1e-12)     NaN stays NaN;
 *   (pts * w[:, None]).sum(0)   each column from 0.0, rows in order;
 *   w.sum()                     0.0 + numpy's pairwise_sum (below).
 *
 * Build with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math (no reassociation, no reciprocal for the divisions);
 * -fno-math-errno lets sqrt vectorize.  The weights run in vector
 * lanes across rows and the column sums in lanes across columns,
 * which changes no bit: each lane does its own operations in order.
 * The same holds for the lift's and the conformal map's rows.
 *
 * cut_number / cut_corners: the sub-mesh's compact node numbering.
 * Every node's representative is the last of its corners in position
 * order (numpy's fancy assignment: the last write wins), and the
 * representatives are numbered 0..m-1 in position order.
 *
 * cut_shared: one pass over the left side's corners, counting them per
 * local node; a node is shared iff 0 < left < total.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The lift's first half: the column means of pts (n x 3, n >= 1)
 * into center[3] and each point's distance from them into radii[n]. */
void cut_lift_center(int64_t n, const double *pts, double *center,
                     double *radii)
{
    double sum[3] = {0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; i++)
        for (int j = 0; j < 3; j++)
            sum[j] += pts[3 * i + j];
    for (int j = 0; j < 3; j++)
        center[j] = sum[j] / (double)n;
    const double c0 = center[0], c1 = center[1], c2 = center[2];
    for (int64_t i = 0; i < n; i++) {
        const double *p = pts + 3 * i;
        const double d0 = p[0] - c0, d1 = p[1] - c1, d2 = p[2] - c2;
        radii[i] = sqrt((d0 * d0 + d1 * d1) + d2 * d2);
    }
}

/* The lift's second half: pts (n x 3) scaled about center onto the
 * unit sphere in R^4, into lifted (n x 4). */
void cut_lift(int64_t n, const double *pts, const double *center,
              double scale, double *lifted)
{
    const double c0 = center[0], c1 = center[1], c2 = center[2];
    for (int64_t i = 0; i < n; i++) {
        const double *p = pts + 3 * i;
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

/* The conformal map of lifted (n x 4) into back (n x 4): the rotation
 * by v (proj = lifted @ v; NULL for none), then the dilation by
 * alpha. */
void cut_conformal(int64_t n, const double *lifted, const double *proj,
                   double vnorm2, const double *v, double alpha,
                   double *back)
{
    for (int64_t i = 0; i < n; i++) {
        const double *l = lifted + 4 * i;
        double q[4];
        if (proj != NULL) {
            const double t = proj[i] / vnorm2;
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
}

/* Rows per block of cut_weiszfeld: weights, then sums, while the
 * block is in cache. */
#define ROWS 256

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
void cut_weiszfeld(int64_t n, const double *pts, int64_t iterations,
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
        for (int j = 0; j < 4; j++)
            sum[j] = 0.0;
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
            for (int64_t i = lo; i < hi; i++)
                for (int j = 0; j < 4; j++)
                    sum[j] += pts[4 * i + j] * w[i];
        }
        const double total = 0.0 + pairwise_sum(w, n);
        for (int j = 0; j < 4; j++)
            guess[j] = sum[j] / total;
    }
}

/* Numbers the nodes of the sub-mesh tets[ids] (n elements), leaving
 * each node's label in scratch; returns the node count m, or -1 (with
 * scratch partly written) when an id or a node is out of range. */
int64_t cut_number(int64_t n, const int64_t *tets, int64_t num_elements,
                   const int64_t *ids, int64_t num_nodes, int32_t *scratch)
{
    for (int64_t e = 0; e < n; e++) {
        if (ids[e] < 0 || ids[e] >= num_elements)
            return -1;
        const int64_t *corner = tets + 4 * ids[e];
        for (int c = 0; c < 4; c++) {
            if (corner[c] < 0 || corner[c] >= num_nodes)
                return -1;
            scratch[corner[c]] = (int32_t)(4 * e + c);
        }
    }
    /* A node's representative is its last corner, so once it is passed
     * the node never comes up again and its entry can take the label. */
    int32_t m = 0;
    for (int64_t e = 0; e < n; e++) {
        const int64_t *corner = tets + 4 * ids[e];
        for (int c = 0; c < 4; c++)
            if (scratch[corner[c]] == (int32_t)(4 * e + c))
                scratch[corner[c]] = m++;
    }
    return m;
}

/* After cut_number: each corner's label into local (n x 4) and the
 * corners per label into totals (zeroed, length m). */
void cut_corners(int64_t n, const int64_t *tets, const int64_t *ids,
                 const int32_t *scratch, int32_t *local, int64_t *totals)
{
    for (int64_t e = 0; e < n; e++) {
        const int64_t *corner = tets + 4 * ids[e];
        for (int c = 0; c < 4; c++) {
            const int32_t label = scratch[corner[c]];
            local[4 * e + c] = label;
            totals[label]++;
        }
    }
}

/* Nodes with some but not all of their totals[v] corners on the left
 * side (mask) of the n elements local (n x 4); left is a zeroed table
 * of m counts.  Returns -1 when a label is not in [0, m). */
int64_t cut_shared(int64_t n, const int32_t *local, const uint8_t *mask,
                   int64_t m, const int64_t *totals, int32_t *left)
{
    for (int64_t e = 0; e < n; e++) {
        if (!mask[e])
            continue;
        for (int c = 0; c < 4; c++) {
            const int32_t label = local[4 * e + c];
            if (label < 0 || label >= m)
                return -1;
            left[label]++;
        }
    }
    int64_t shared = 0;
    for (int64_t v = 0; v < m; v++)
        shared += (left[v] > 0) & (left[v] < totals[v]);
    return shared;
}

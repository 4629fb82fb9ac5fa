/* The geometric partitioner's three hot passes, behind
 * repro.partition.geometric.
 *
 * Each returns exactly what its numpy function returns.
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
#include <stdint.h>

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

/* Sort-free stiffness assembly behind repro.fem.assembly.
 *
 * The matrix is node-block CSR: one full 3x3 block per pair of nodes
 * that share an element, rows 3b..3b+2 holding node b's column nodes in
 * ascending order -- the canonical CSR that scipy's COO -> CSR gives.
 * No triplets and no sort: a counting sort builds the node -> element
 * incidence (elements ascending), and one stamp walk over the nodes in
 * ascending order visits each node's distinct neighbours -- first to
 * count them, then to append each node to its neighbours' lists, which
 * so come out sorted.
 *
 * The same two passes, without self loops, give the mesh's node graph
 * behind repro.mesh.topology (node_graph): per node its neighbours,
 * ascending, as CSR.  Its edges are the graph's upper triangle, and the
 * stiffness pattern is that graph plus the diagonal.
 *
 * Bits: every entry is +0.0 plus its element contributions in
 * ascending element position, left to right.  Each node's three rows
 * are filled in one visit: the node's elements in ascending order, each
 * adding the node's 3 x 12 row slice of its element matrix
 *
 *   K[a,i; b,j] = ((lam g_a[i] g_b[j] + mu g_a[j] g_b[i])
 *                  + (mu (g_a . g_b)) delta_ij) vol,
 *   g_a . g_b   = (g_a[0] g_b[0] + g_a[2] g_b[2]) + g_a[1] g_b[1],
 *
 * in exactly the operation order of element_stiffness.  Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math.
 *
 * packed_fill is the same visit for one PE, writing the packed state
 * the distributed executor multiplies with (repro.smvp.kernels.
 * PackedState) instead of a CSR: each node pair's block once, the one
 * with c >= b, from the same neighbour lists, and the blocks below the
 * node diagonal summed only to check, bit for bit, that each is its
 * mirror transposed -- the check nodal.c's packed_pack makes on a CSR.
 *
 * Two more passes read the element geometry behind repro.fem.element:
 * element_geometry (shape-function gradients and volumes, in closed
 * form) and element_edge_time (the shortest edge over the wave speed).
 * The numpy fallbacks there spell out the same operations in the same
 * order, so both paths give the same bits.
 *
 * Beside them, element_signed_volumes and element_centroids serve
 * repro.geometry.tetra (the mesher's orientation and jitter decisions,
 * material sampling and the partitioners' centroids) in the float
 * order numpy's einsum and mean take, reading each corner through the
 * element's node ids rather than gathering an (m, 4, 3) corner array.
 *
 * Last, edge_counts serves repro.smvp.distribution: a partition's
 * per-PE local edges and shared-row blocks from one walk over the node
 * graph's rows and the elements with two or more shared corners, no
 * sort and no corner gather.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#include "../native.h"

/* ptr[v] for v = n_node .. 1 takes ptr[v - 1], and ptr[0] is 0: after
 * a fill that advanced each ptr[v] from v's start to v + 1's, ptr holds
 * the starts again. */
static void rewind_starts(int64_t n_node, int64_t *ptr)
{
    for (int64_t v = n_node; v > 0; v--)
        ptr[v] = ptr[v - 1];
    ptr[0] = 0;
}

/* The node -> element incidence by a counting sort: inc_ptr
 * (n_node + 1) and inc (4 m), elements ascending per node.  Returns
 * -1, or the position of the first element with a corner outside
 * [0, n_node) (the incidence is then unset). */
static int64_t incidence(int64_t n_node, int64_t m, const int32_t *tets,
                         int64_t *inc_ptr, int32_t *inc)
{
    memset(inc_ptr, 0, (size_t)(n_node + 1) * sizeof *inc_ptr);
    for (int64_t k = 0; k < 4 * m; k++) {
        if (tets[k] < 0 || tets[k] >= n_node)
            return k / 4;
        inc_ptr[tets[k] + 1]++;
    }
    for (int64_t v = 0; v < n_node; v++)
        inc_ptr[v + 1] += inc_ptr[v];
    /* inc_ptr[v] is v's fill cursor, and ends as v + 1's start. */
    for (int64_t e = 0; e < m; e++)
        for (int t = 0; t < 4; t++)
            inc[inc_ptr[tets[4 * e + t]]++] = (int32_t)e;
    rewind_starts(n_node, inc_ptr);
    return -1;
}

/* The stamp walk: for each node c in ascending order, each node b that
 * shares an element with c, once -- c itself too when loops is 1.
 * With cols NULL each visit adds one to cursor[b] (counts); otherwise
 * it stores c at cols[cursor[b]++], so each b's list comes out
 * ascending.  stamp (n_node) is scratch. */
static void walk(int64_t n_node, const int32_t *tets, const int64_t *inc_ptr,
                 const int32_t *inc, int32_t *stamp, int loops,
                 int64_t *cursor, int32_t *cols)
{
    for (int64_t b = 0; b < n_node; b++)
        stamp[b] = -1;
    for (int64_t c = 0; c < n_node; c++)
        for (int64_t q = inc_ptr[c]; q < inc_ptr[c + 1]; q++)
            for (int t = 0; t < 4; t++) {
                const int32_t b = tets[4 * (int64_t)inc[q] + t];
                if (stamp[b] == c)
                    continue;
                stamp[b] = (int32_t)c;
                if (b == c && !loops)
                    continue;
                if (cols)
                    cols[cursor[b]] = (int32_t)c;
                cursor[b]++;
            }
}

/* The incidence (as above) and each node's neighbour count, a node
 * neighbouring itself when loops is 1: node_ptr (n_node + 1) receives
 * their prefix sums.  stamp (n_node) is scratch.  Returns -1, or the
 * position of the first element with a corner outside [0, n_node) (the
 * other outputs are then unset). */
int64_t assembly_graph(int64_t n_node, int64_t m, const int32_t *tets,
                       int32_t loops, int64_t *inc_ptr, int32_t *inc,
                       int64_t *node_ptr, int32_t *stamp)
{
    const int64_t bad = incidence(n_node, m, tets, inc_ptr, inc);
    if (bad >= 0)
        return bad;
    memset(node_ptr, 0, (size_t)(n_node + 1) * sizeof *node_ptr);
    walk(n_node, tets, inc_ptr, inc, stamp, loops, node_ptr + 1, NULL);
    for (int64_t v = 0; v < n_node; v++)
        node_ptr[v + 1] += node_ptr[v];
    return -1;
}

/* Each node's neighbours, ascending, into cols (node_ptr[n_node]) at
 * node_ptr -- the counts assembly_graph gave with the same loops. */
static void neighbours(int64_t n_node, const int32_t *tets,
                       const int64_t *inc_ptr, const int32_t *inc,
                       int32_t *stamp, int loops, int64_t *node_ptr,
                       int32_t *cols)
{
    /* node_ptr[v] is v's fill cursor, and ends as v + 1's start. */
    walk(n_node, tets, inc_ptr, inc, stamp, loops, node_ptr, cols);
    rewind_starts(n_node, node_ptr);
}

/* The mesh's node graph as CSR, after assembly_graph with loops 0:
 * nbr (ptr[n_node]) receives each node's neighbours in ascending order,
 * no self loops, at ptr (assembly_graph's node_ptr).  stamp (n_node) is
 * scratch. */
void node_graph(int64_t n_node, const int32_t *tets, const int64_t *inc_ptr,
                const int32_t *inc, int32_t *stamp, int64_t *ptr,
                int32_t *nbr)
{
    neighbours(n_node, tets, inc_ptr, inc, stamp, 0, ptr, nbr);
}

/* indptr (3 n_node + 1) and indices (9 node_ptr[n_node]) of the
 * pattern, after assembly_graph with loops 1: row 3b + i lists the
 * dofs 3c, 3c + 1, 3c + 2 of each of b's column nodes c, which cols
 * (node_ptr[n_node]) receives.  stamp (n_node) is scratch. */
static void pattern(int64_t n_node, const int32_t *tets,
                    const int64_t *inc_ptr, const int32_t *inc,
                    int64_t *node_ptr, int32_t *stamp, int32_t *cols,
                    int32_t *indptr, int32_t *indices)
{
    neighbours(n_node, tets, inc_ptr, inc, stamp, 1, node_ptr, cols);
    for (int64_t b = 0; b < n_node; b++) {
        const int32_t base = (int32_t)(9 * node_ptr[b]);
        const int32_t len = (int32_t)(3 * (node_ptr[b + 1] - node_ptr[b]));
        const int32_t *col = cols + node_ptr[b];
        int32_t *row0 = indices + base;
        for (int32_t k = 0; k < len; k += 3) {
            row0[k] = 3 * col[k / 3];
            row0[k + 1] = row0[k] + 1;
            row0[k + 2] = row0[k] + 2;
        }
        memcpy(row0 + len, row0, (size_t)len * sizeof *row0);
        memcpy(row0 + 2 * len, row0, (size_t)len * sizeof *row0);
        indptr[3 * b] = base;
        indptr[3 * b + 1] = base + len;
        indptr[3 * b + 2] = base + 2 * len;
    }
    indptr[3 * n_node] = (int32_t)(9 * node_ptr[n_node]);
}

/* The pattern (as above), then data (9 node_ptr[n_node]): for each
 * element e, grads holds g_0..g_3 (12 doubles) and vol, lam and mu one
 * value each.  stamp (n_node) and cols (node_ptr[n_node]) are
 * scratch. */
void assembly_fill(int64_t n_node, const int32_t *tets,
                   const int64_t *inc_ptr, const int32_t *inc,
                   int64_t *node_ptr, int32_t *stamp, int32_t *cols,
                   const double *grads, const double *vol,
                   const double *lam, const double *mu,
                   int32_t *indptr, int32_t *indices, double *data)
{
    pattern(n_node, tets, inc_ptr, inc, node_ptr, stamp, cols, indptr,
            indices);
    for (int64_t b = 0; b < n_node; b++) {
        const int32_t base = indptr[3 * b];
        const int32_t len = indptr[3 * b + 1] - base;
        double *rows[3] = {data + base, data + base + len,
                           data + base + 2 * len};
        /* stamp[c]: the offset of column node c in b's rows. */
        for (int32_t k = 0; k < len; k += 3)
            stamp[indices[base + k] / 3] = k;
        memset(rows[0], 0, 3 * (size_t)len * sizeof *data);
        for (int64_t q = inc_ptr[b]; q < inc_ptr[b + 1]; q++) {
            const int64_t e = inc[q];
            const int32_t *t = tets + 4 * e;
            const double *g = grads + 12 * e;
            const double l = lam[e], u = mu[e], v = vol[e];
            int a = 0;
            while (t[a] != b)
                a++;
            const double *ga = g + 3 * a;
            for (int c = 0; c < 4; c++) {
                const double *gb = g + 3 * c;
                const int32_t off = stamp[t[c]];
                const double dot =
                    (ga[0] * gb[0] + ga[2] * gb[2]) + ga[1] * gb[1];
                const double md = u * dot;
                for (int i = 0; i < 3; i++)
                    for (int j = 0; j < 3; j++) {
                        double s = l * (ga[i] * gb[j]) + u * (ga[j] * gb[i]);
                        s = s + md * (i == j ? 1.0 : 0.0);
                        rows[i][off + j] += s * v;
                    }
            }
        }
    }
}

static int same_bits(double a, double b)
{
    uint64_t ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    return ua == ub;
}

/* One PE's packed node-block state (repro.smvp.kernels.PackedState)
 * straight from its elements, after assembly_graph with loops 1: the
 * blocks of the matrix assembly_fill gives, each node pair's once, and
 * no CSR.  ptr (n_node + 1) / nbr (node_ptr[n_node]) are each node's
 * column nodes, ascending, as neighbours lists them; upper[b] is b's
 * first entry with c >= b; ref[k] the block entry k reads.  Blocks
 * (9 n_block doubles) are numbered in node order, b's upper entries
 * in column order; a lower entry (c < b) reads its mirror's block,
 * found by one cursor per node (cur, n_node) as in nodal.c's
 * packed_pack.
 *
 * Only the blocks with c >= b are stored, each +0.0 plus its element
 * contributions in ascending element position -- assembly_fill's bits.
 * Node b's lower blocks are summed in the same order into lower
 * (9 doubles per lower entry of the longest list) and compared, bit
 * for bit, with their mirrors transposed: packed_pack's check.
 * Returns 1, or 0 when a lower block is not its mirror transposed, a
 * mirror is missing, or the upper entries are not n_block (the state
 * is then unusable).  stamp (n_node) is scratch. */
int packed_fill(int64_t n_node, const int32_t *tets, const int64_t *inc_ptr,
                const int32_t *inc, int64_t *node_ptr, int32_t *stamp,
                const double *grads, const double *vol, const double *lam,
                const double *mu, int64_t n_block, int32_t *ptr,
                int32_t *upper, int32_t *nbr, int32_t *ref, double *blocks,
                int32_t *cur, double *lower)
{
    neighbours(n_node, tets, inc_ptr, inc, stamp, 1, node_ptr, nbr);
    int64_t nb = 0;
    for (int64_t b = 0; b < n_node; b++) {
        const int64_t k0 = node_ptr[b], k1 = node_ptr[b + 1];
        int64_t up = k0;
        while (up < k1 && nbr[up] < b)
            up++;
        ptr[b] = (int32_t)k0;
        upper[b] = (int32_t)up;
        /* Node c's entries above its diagonal are visited in ascending
         * b, so one cursor per node finds each mirror. */
        for (int64_t k = k0; k < up; k++) {
            const int32_t c = nbr[k];
            int64_t j = cur[c];
            while (j < node_ptr[c + 1] && nbr[j] < b)
                j++;
            if (j >= node_ptr[c + 1] || nbr[j] != b)
                return 0;
            cur[c] = (int32_t)(j + 1);
            ref[k] = ref[j];
        }
        if (nb + (k1 - up) > n_block)
            return 0;
        for (int64_t k = up; k < k1; k++)
            ref[k] = (int32_t)nb++;
        cur[b] = (int32_t)up;
        /* stamp[c]: column node c's entry in b's list, from k0. */
        for (int64_t k = k0; k < k1; k++)
            stamp[nbr[k]] = (int32_t)(k - k0);
        double *own = blocks + 9 * (int64_t)(k1 > up ? ref[up] : 0);
        memset(own, 0, 9 * (size_t)(k1 - up) * sizeof *own);
        memset(lower, 0, 9 * (size_t)(up - k0) * sizeof *lower);
        for (int64_t q = inc_ptr[b]; q < inc_ptr[b + 1]; q++) {
            const int64_t e = inc[q];
            const int32_t *t = tets + 4 * e;
            /* A local copy, which the stores below cannot alias. */
            double g[12];
            memcpy(g, grads + 12 * e, sizeof g);
            const double l = lam[e], u = mu[e], v = vol[e];
            int a = 0;
            while (t[a] != b)
                a++;
            const double *ga = g + 3 * a;
            for (int c = 0; c < 4; c++) {
                const double *gb = g + 3 * c;
                const int64_t off = stamp[t[c]];
                double *m = off < up - k0 ? lower + 9 * off
                                          : own + 9 * (off - (up - k0));
                const double dot =
                    (ga[0] * gb[0] + ga[2] * gb[2]) + ga[1] * gb[1];
                const double md = u * dot;
                double k[9];
                for (int i = 0; i < 3; i++)
                    for (int j = 0; j < 3; j++) {
                        double s = l * (ga[i] * gb[j]) + u * (ga[j] * gb[i]);
                        s = s + md * (i == j ? 1.0 : 0.0);
                        k[3 * i + j] = s * v;
                    }
                for (int x = 0; x < 9; x++)
                    m[x] += k[x];
            }
        }
        for (int64_t k = k0; k < up; k++) {
            const double *mine = lower + 9 * (k - k0);
            const double *m = blocks + 9 * (int64_t)ref[k];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 3; j++)
                    if (!same_bits(mine[3 * i + j], m[3 * j + i]))
                        return 0;
        }
    }
    ptr[n_node] = (int32_t)node_ptr[n_node];
    return nb == n_block;
}

/* The constant shape-function gradients and the volume of m linear
 * tets: element k is row ids[k] of tets (row k when ids is NULL).
 * With e_k = p_k - p_0 and
 *
 *   c_1 = e_2 x e_3,  c_2 = e_3 x e_1,  c_3 = e_1 x e_2,
 *   a x b = (a_y b_z - a_z b_y, a_z b_x - a_x b_z, a_x b_y - a_y b_x),
 *   det = (e_1x c_1x + e_1y c_1y) + e_1z c_1z,
 *
 * the gradients are g_k = c_k / det (k = 1..3) and
 * g_0 = -((g_1 + g_2) + g_3), and the volume is |det| / 6.  grads
 * (12 m; NULL: volumes only) receives g_0..g_3 per element, vol (m) the
 * volumes.  Returns -1, or the position of the first element with a
 * corner outside [0, n_node) or with not 1e-30 <= |det| < inf (which a
 * NaN or an infinite coordinate fails too); the outputs of the
 * elements before it are written. */
int64_t element_geometry(int64_t m, const int64_t *ids, const int64_t *tets,
                         int64_t n_node, const double *points,
                         double *grads, double *vol)
{
    for (int64_t k = 0; k < m; k++) {
        const int64_t *t = tets + 4 * (ids ? ids[k] : k);
        for (int a = 0; a < 4; a++)
            if (t[a] < 0 || t[a] >= n_node)
                return k;
        const double *p0 = points + 3 * t[0];
        double e[3][3], c[3][3];
        for (int a = 0; a < 3; a++)
            for (int i = 0; i < 3; i++)
                e[a][i] = points[3 * t[a + 1] + i] - p0[i];
        for (int a = 0; a < 3; a++) {
            const double *u = e[(a + 1) % 3], *w = e[(a + 2) % 3];
            c[a][0] = u[1] * w[2] - u[2] * w[1];
            c[a][1] = u[2] * w[0] - u[0] * w[2];
            c[a][2] = u[0] * w[1] - u[1] * w[0];
        }
        const double det =
            (e[0][0] * c[0][0] + e[0][1] * c[0][1]) + e[0][2] * c[0][2];
        const double size = fabs(det);
        if (!(size >= 1e-30 && size < INFINITY))
            return k;
        vol[k] = size / 6.0;
        if (grads) {
            double *g = grads + 12 * k;
            for (int a = 0; a < 3; a++)
                for (int i = 0; i < 3; i++)
                    g[3 * (a + 1) + i] = c[a][i] / det;
            for (int i = 0; i < 3; i++)
                g[i] = -((g[3 + i] + g[6 + i]) + g[9 + i]);
        }
    }
    return -1;
}

/* The signed volume of m linear tets (tets row k) into vol (m), each
 * corner read through the element's node ids.  With
 * a, b, c = p_1 - p_0, p_2 - p_0, p_3 - p_0 and x = b x c (products,
 * then the difference, as numpy's cross):
 *
 *   vol = (((0 + a_x x_x) + a_z x_z) + a_y x_y) / 6,
 *
 * the order numpy's einsum("ij,ij->i") sums three columns in; its
 * accumulator starts at +0.0, so a -0.0 sum comes out +0.0.  A NaN
 * or an infinite coordinate passes through as NaN or inf.  Returns -1,
 * or the position of the first element with a corner outside
 * [0, n_node) (the volumes before it are written). */
int64_t element_signed_volumes(int64_t m, const int64_t *tets,
                               int64_t n_node, const double *points,
                               double *vol)
{
    for (int64_t k = 0; k < m; k++) {
        const int64_t *t = tets + 4 * k;
        for (int a = 0; a < 4; a++)
            if (t[a] < 0 || t[a] >= n_node)
                return k;
        const double *p0 = points + 3 * t[0];
        double e[3][3];
        for (int a = 0; a < 3; a++)
            for (int i = 0; i < 3; i++)
                e[a][i] = points[3 * t[a + 1] + i] - p0[i];
        const double *b = e[1], *c = e[2];
        const double x0 = b[1] * c[2] - b[2] * c[1];
        const double x1 = b[2] * c[0] - b[0] * c[2];
        const double x2 = b[0] * c[1] - b[1] * c[0];
        const double s = 0.0 + e[0][0] * x0;
        vol[k] = ((s + e[0][2] * x2) + e[0][1] * x1) / 6.0;
    }
    return -1;
}

/* The centroid of m linear tets (tets row k) into out (3 m): per
 * coordinate ((((0 + p_0) + p_1) + p_2) + p_3) / 4, the order of
 * numpy's points[tets].mean(axis=1), whose sum starts at +0.0 too.
 * Returns -1, or the position of the first element with a corner
 * outside [0, n_node) (the centroids before it are written). */
int64_t element_centroids(int64_t m, const int64_t *tets, int64_t n_node,
                          const double *points, double *out)
{
    for (int64_t k = 0; k < m; k++) {
        const int64_t *t = tets + 4 * k;
        for (int a = 0; a < 4; a++)
            if (t[a] < 0 || t[a] >= n_node)
                return k;
        const double *p0 = points + 3 * t[0], *p1 = points + 3 * t[1];
        const double *p2 = points + 3 * t[2], *p3 = points + 3 * t[3];
        for (int i = 0; i < 3; i++) {
            const double s = ((0.0 + p0[i]) + p1[i]) + p2[i];
            out[3 * k + i] = (s + p3[i]) / 4.0;
        }
    }
    return -1;
}

/* The smallest shortest-edge / speed[k] over m >= 1 linear tets
 * (tets row k, speed one value each) into *out.  Each edge length is
 * sqrt((dx dx + dy dy) + dz dz); a min is exact in any order, and a NaN
 * ratio makes the result NaN.  Returns -1, or the position of the first
 * element with a corner outside [0, n_node) or a non-finite
 * coordinate (*out then unset). */
int64_t element_edge_time(int64_t m, const int64_t *tets, int64_t n_node,
                          const double *points, const double *speed,
                          double *out)
{
    double best = INFINITY;
    for (int64_t k = 0; k < m; k++) {
        const int64_t *t = tets + 4 * k;
        const double *p[4];
        for (int a = 0; a < 4; a++) {
            if (t[a] < 0 || t[a] >= n_node)
                return k;
            p[a] = points + 3 * t[a];
            if (!(isfinite(p[a][0]) && isfinite(p[a][1]) &&
                  isfinite(p[a][2])))
                return k;
        }
        double shortest = INFINITY;
        for (int a = 0; a < 3; a++)
            for (int b = a + 1; b < 4; b++) {
                const double dx = p[a][0] - p[b][0];
                const double dy = p[a][1] - p[b][1];
                const double dz = p[a][2] - p[b][2];
                const double len = sqrt((dx * dx + dy * dy) + dz * dz);
                if (len < shortest)
                    shortest = len;
            }
        const double ratio = shortest / speed[k];
        if (ratio < best || isnan(ratio))
            best = ratio;
    }
    *out = best;
    return -1;
}

/* ---- A partition's edge counts -------------------------------------- */

/* The first position of nbr[lo..end) (ascending) not below hi: a
 * binary search whose steps are selects, not branches. */
static int64_t find_slot(const int32_t *nbr, int64_t lo, int64_t end,
                         int32_t hi)
{
    int64_t len = end - lo;
    while (len > 0) {
        const int64_t half = len >> 1;
        const int below = nbr[lo + half] < hi;
        lo = below ? lo + half + 1 : lo;
        len = below ? len - half - 1 : half;
    }
    return lo;
}

/* Per-PE local edges and off-diagonal blocks in shared rows (edges,
 * blocks: p each) of the m elements tets split into p parts by parts,
 * behind repro.smvp.distribution.  shared[v] is 1 when node v resides
 * on two or more PEs, and res_ptr / res_pe list the PEs of each node;
 * ptr / nbr is the mesh's node graph (rows ascending).  An edge adds
 * one block per shared end on each PE it lies on.
 *
 * An edge with a residency-1 end lies on that end's PE alone: a walk
 * over those nodes' rows counts each such edge once, from that end (the
 * lower one when both are).  An edge with both ends shared lies on
 * every PE owning an element that holds both: the elements with two or
 * more shared corners, grouped by part by a counting sort (start:
 * p + 1, order: m), find each such edge's slot in its lower end's row,
 * and the slot's stamp (stamp: ptr[n_node]) keeps the last PE that
 * counted it, so each distinct (edge, PE) pair counts once.
 *
 * Returns 0, or -1 (counts unset) when a both-shared corner pair is no
 * edge of the graph. */
int64_t edge_counts(int64_t n_node, int64_t m, const int64_t *tets,
                    const int32_t *parts, int64_t p, const uint8_t *shared,
                    const int64_t *res_ptr, const int32_t *res_pe,
                    const int64_t *ptr, const int32_t *nbr, int64_t *start,
                    int32_t *order, int32_t *stamp, int64_t *edges,
                    int64_t *blocks)
{
    memset(edges, 0, (size_t)p * sizeof(int64_t));
    memset(blocks, 0, (size_t)p * sizeof(int64_t));
    for (int64_t v = 0; v < n_node; v++) {
        if (res_ptr[v + 1] - res_ptr[v] != 1)
            continue;
        const int32_t pe = res_pe[res_ptr[v]];
        for (int64_t s = ptr[v]; s < ptr[v + 1]; s++) {
            const int32_t w = nbr[s];
            edges[pe] += shared[w] | (w > v);
            blocks[pe] += shared[w];
        }
    }
    memset(start, 0, (size_t)(p + 1) * sizeof(int64_t));
    for (int64_t e = 0; e < m; e++) {
        const int64_t *c = tets + 4 * e;
        if (shared[c[0]] + shared[c[1]] + shared[c[2]] + shared[c[3]] >= 2)
            start[parts[e] + 1]++;
    }
    for (int64_t pe = 0; pe < p; pe++)
        start[pe + 1] += start[pe];
    const int64_t total = start[p];
    for (int64_t e = 0; e < m; e++) {
        const int64_t *c = tets + 4 * e;
        if (shared[c[0]] + shared[c[1]] + shared[c[2]] + shared[c[3]] >= 2)
            order[start[parts[e]]++] = (int32_t)e;
    }
    memset(stamp, 0xff, (size_t)ptr[n_node] * sizeof(int32_t));
    for (int64_t i = 0; i < total; i++) {
        const int64_t *c = tets + 4 * (int64_t)order[i];
        const int32_t pe = parts[order[i]];
        /* The element's shared corners, listed without a branch. */
        int64_t ends[4];
        int k = 0;
        for (int j = 0; j < 4; j++) {
            ends[k] = c[j];
            k += shared[c[j]];
        }
        for (int a = 0; a < k - 1; a++)
            for (int b = a + 1; b < k; b++) {
                const int64_t lo = ends[a] < ends[b] ? ends[a] : ends[b];
                const int64_t hi = ends[a] < ends[b] ? ends[b] : ends[a];
                const int64_t s =
                    find_slot(nbr, ptr[lo], ptr[lo + 1], (int32_t)hi);
                if (s == ptr[lo + 1] || nbr[s] != hi)
                    return -1;
                const int fresh = stamp[s] != pe;
                stamp[s] = pe;
                edges[pe] += fresh;
                blocks[pe] += 2 * fresh;
            }
    }
    return 0;
}

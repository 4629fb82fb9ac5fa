/* The packed symmetric node-block loop behind the `csr` kernel
 * (repro.smvp.kernels).
 *
 * A Quake stiffness matrix stores one full 3x3 block per coupled node
 * pair (rows 3b..3b+2 share one column list of node triples), and the
 * block of (c, b) is the transpose of the block of (b, c), bit for
 * bit.  The packed state holds each node pair once:
 *
 *   ptr[b] .. ptr[b+1]   node b's entries, in ascending column node;
 *   nbr[k]               entry k's column node c;
 *   ref[k]               the block entry k reads, 9 doubles row-major;
 *   upper[b]             node b's first entry with c >= b.
 *
 * An entry with c >= b owns its block (K[3b+i][3c+j] = M[3i+j]); an
 * entry below the node diagonal (c < b) reads its mirror's block
 * transposed (K[3b+i][3c+j] = M[3j+i]).  The loop streams about half
 * the bytes of the matrix's CSR arrays.
 *
 * Bits: every output entry has one accumulator that starts at +0.0 and
 * adds K[i][j] * x[j] in ascending column order, multiply and add
 * separately -- the order of scipy's csr_matvec / csr_matvecs on a
 * zeroed output over sorted indices.  Build with -ffp-contract=off (no
 * fused multiply-add) and without -ffast-math (no reassociation, no
 * flush-to-zero).  In the 16- and 8-column tiles vector lanes run
 * across the columns of x, never along a sum.
 *
 * One entry runs products: packed_range, over a range of PEs of a
 * per-PE table (one row per packed state, its slice offset included)
 * against the whole x and y buffers of a layout.  A single state's
 * product is a one-row table.  The exchange's snapshot and sums run
 * here too (exchange_sum).
 */
#include <stdint.h>
#include <string.h>
#include "../native.h"

typedef double v8d __attribute__((vector_size(64)));

/* Node b's column list when rows 3b..3b+2 hold one list of whole,
 * strictly ascending node triples inside [0, n_col_node); its length
 * in nodes, or -1. */
static int64_t node_entries(int64_t b, int64_t n_col_node,
                            const int32_t *indptr, const int32_t *indices)
{
    const int64_t p0 = indptr[3 * b], len = indptr[3 * b + 1] - p0;
    if (len < 0 || len % 3 || indptr[3 * b + 2] - indptr[3 * b + 1] != len
        || indptr[3 * b + 3] - indptr[3 * b + 2] != len)
        return -1;
    const int32_t *c0 = indices + p0, *c1 = c0 + len, *c2 = c1 + len;
    int64_t last = -1;
    for (int64_t k = 0; k < len; k += 3) {
        const int64_t node = c0[k] / 3;
        if (c0[k] < 0 || c0[k] % 3 || node <= last || node >= n_col_node)
            return -1;
        last = node;
        for (int64_t d = 0; d < 3; d++)
            if (c0[k + d] != c0[k] + d || c1[k + d] != c0[k + d]
                || c2[k + d] != c0[k + d])
                return -1;
    }
    return len / 3;
}

/* 1 when the CSR arrays have the node structure (see node_entries),
 * every row inside [0, nnz); then *entries and *blocks are the packed
 * state's sizes.  Else 0.  O(nnz), nothing written but the sizes. */
int packed_count(int64_t n_row, int64_t n_col, int64_t nnz,
                 const int32_t *indptr, const int32_t *indices,
                 int64_t *entries, int64_t *blocks)
{
    if (n_row % 3 || n_col % 3 || indptr[0] < 0 || indptr[n_row] > nnz)
        return 0;
    int64_t e = 0, nb = 0;
    for (int64_t b = 0; b < n_row / 3; b++) {
        const int64_t len = node_entries(b, n_col / 3, indptr, indices);
        if (len < 0)
            return 0;
        const int32_t *col = indices + indptr[3 * b];
        for (int64_t k = 0; k < len; k++)
            nb += col[3 * k] / 3 >= b;
        e += len;
    }
    *entries = e;
    *blocks = nb;
    return 1;
}

static int same_bits(double a, double b)
{
    uint64_t ua, ub;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    return ua == ub;
}

/* Fill the packed state of a matrix packed_count accepted; cur is
 * scratch, one int32 per node.  1 when every entry below the node
 * diagonal finds its mirror, whose block is bit for bit its own
 * transposed; else 0 (the state is then unusable). */
int packed_pack(int64_t n_node, const int32_t *indptr, const int32_t *indices,
                const double *data, int32_t *ptr, int32_t *upper,
                int32_t *nbr, int32_t *ref, double *blocks, int32_t *cur)
{
    int64_t e = 0, nb = 0;
    for (int64_t b = 0; b < n_node; b++) {
        const int64_t p0 = indptr[3 * b], len = (indptr[3 * b + 1] - p0) / 3;
        const double *row[3] = {data + p0, data + p0 + 3 * len,
                                data + p0 + 6 * len};
        ptr[b] = (int32_t)e;
        upper[b] = -1;
        for (int64_t t = 0; t < len; t++, e++) {
            const int32_t c = indices[p0 + 3 * t] / 3;
            nbr[e] = c;
            if (c >= b) {
                if (upper[b] < 0)
                    upper[b] = (int32_t)e;
                double *m = blocks + 9 * nb;
                for (int i = 0; i < 3; i++)
                    for (int j = 0; j < 3; j++)
                        m[3 * i + j] = row[i][3 * t + j];
                ref[e] = (int32_t)nb++;
                continue;
            }
            /* Node c's entries above its diagonal are visited in
             * ascending b, so one cursor per node finds each mirror. */
            int32_t k = cur[c];
            while (k < ptr[c + 1] && nbr[k] < b)
                k++;
            if (k >= ptr[c + 1] || nbr[k] != b)
                return 0;
            cur[c] = k + 1;
            ref[e] = ref[k];
            const double *m = blocks + 9 * (int64_t)ref[k];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 3; j++)
                    if (!same_bits(row[i][3 * t + j], m[3 * j + i]))
                        return 0;
        }
        if (upper[b] < 0)
            upper[b] = (int32_t)e;
        /* Lower entries of later nodes look for their mirrors among
         * node b's entries from here on. */
        cur[b] = upper[b];
    }
    ptr[n_node] = (int32_t)e;
    return 1;
}

/* K[i][j] of an entry's block: its own (T = 0) or its mirror's
 * transposed (T = 1). */
#define K(m, T, i, j) ((T) ? (m)[3 * (j) + (i)] : (m)[3 * (i) + (j)])

/* Entries k0 .. k1 of one node into 3 * NV accumulators of 8 columns
 * each, the columns of x r apart.  NV and T are constants at every
 * call, so the accumulators stay in vector registers. */
static inline __attribute__((always_inline)) void
tile_entries(const int NV, const int T, const int64_t r, int32_t k0,
             int32_t k1, const int32_t *nbr, const int32_t *ref,
             const double *blocks, const double *x, v8d s[3][2])
{
    for (int32_t k = k0; k < k1; k++) {
        const double *m = blocks + 9 * (int64_t)ref[k];
        const double *xc = x + 3 * (int64_t)nbr[k] * r;
        for (int j = 0; j < 3; j++) {
            const double a0 = K(m, T, 0, j), a1 = K(m, T, 1, j),
                         a2 = K(m, T, 2, j);
            for (int v = 0; v < NV; v++) {
                v8d xv;
                memcpy(&xv, xc + j * r + 8 * v, sizeof xv);
                s[0][v] += a0 * xv;
                s[1][v] += a1 * xv;
                s[2][v] += a2 * xv;
            }
        }
    }
}

/* One node's three rows against 8 * NV columns: the entries below the
 * node diagonal, then the rest, in ascending column node. */
static inline __attribute__((always_inline)) void
node_tile(const int NV, const int64_t r, int32_t k0, int32_t ks, int32_t k1,
          const int32_t *nbr, const int32_t *ref, const double *blocks,
          const double *x, double *y)
{
    v8d s[3][2];
    for (int i = 0; i < 3; i++)
        for (int v = 0; v < NV; v++)
            s[i][v] = (v8d){0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    tile_entries(NV, 1, r, k0, ks, nbr, ref, blocks, x, s);
    tile_entries(NV, 0, r, ks, k1, nbr, ref, blocks, x, s);
    for (int i = 0; i < 3; i++)
        for (int v = 0; v < NV; v++)
            memcpy(y + i * r + 8 * v, &s[i][v], sizeof s[i][v]);
}

/* The same for W = 4, 2 or 1 columns, in scalars. */
static inline __attribute__((always_inline)) void
narrow_entries(const int W, const int T, const int64_t r, int32_t k0,
               int32_t k1, const int32_t *nbr, const int32_t *ref,
               const double *blocks, const double *x, double s[3][4])
{
    for (int32_t k = k0; k < k1; k++) {
        const double *m = blocks + 9 * (int64_t)ref[k];
        const double *xc = x + 3 * (int64_t)nbr[k] * r;
        for (int j = 0; j < 3; j++) {
            const double a0 = K(m, T, 0, j), a1 = K(m, T, 1, j),
                         a2 = K(m, T, 2, j);
            for (int w = 0; w < W; w++) {
                s[0][w] += a0 * xc[j * r + w];
                s[1][w] += a1 * xc[j * r + w];
                s[2][w] += a2 * xc[j * r + w];
            }
        }
    }
}

static inline __attribute__((always_inline)) void
node_narrow(const int W, const int64_t r, int32_t k0, int32_t ks, int32_t k1,
            const int32_t *nbr, const int32_t *ref, const double *blocks,
            const double *x, double *y)
{
    double s[3][4] = {{0.0}};
    narrow_entries(W, 1, r, k0, ks, nbr, ref, blocks, x, s);
    narrow_entries(W, 0, r, ks, k1, nbr, ref, blocks, x, s);
    for (int i = 0; i < 3; i++)
        for (int w = 0; w < W; w++)
            y[i * r + w] = s[i][w];
}

/* y = K x for n_node node triples of rows; x is (n_col, r) and y
 * (3 n_node, r), both C-contiguous.  Columns run in tiles of width
 * 16, then one each of 8, 4, 2 and 1 as the remainder needs. */
static void packed_product(int64_t n_node, int64_t r, const int32_t *ptr,
                           const int32_t *upper, const int32_t *nbr,
                           const int32_t *ref, const double *blocks,
                           const double *x, double *y)
{
    for (int64_t b = 0; b < n_node; b++) {
        const int32_t k0 = ptr[b], ks = upper[b], k1 = ptr[b + 1];
        double *yb = y + 3 * b * r;
        if (r == 1) {
            node_narrow(1, 1, k0, ks, k1, nbr, ref, blocks, x, yb);
            continue;
        }
        int64_t c = 0;
        for (; c + 16 <= r; c += 16)
            node_tile(2, r, k0, ks, k1, nbr, ref, blocks, x + c, yb + c);
        if (r - c >= 8) {
            node_tile(1, r, k0, ks, k1, nbr, ref, blocks, x + c, yb + c);
            c += 8;
        }
        if (r - c >= 4) {
            node_narrow(4, r, k0, ks, k1, nbr, ref, blocks, x + c, yb + c);
            c += 4;
        }
        if (r - c >= 2) {
            node_narrow(2, r, k0, ks, k1, nbr, ref, blocks, x + c, yb + c);
            c += 2;
        }
        if (r - c >= 1)
            node_narrow(1, r, k0, ks, k1, nbr, ref, blocks, x + c, yb + c);
    }
}

/* The products of PEs lo .. hi-1 of table: PE i reads rows
 * offset .. offset + 3 n_node of x and writes the same rows of y, r
 * doubles a row.  x is only read; y must not overlap it. */
void packed_range(const packed_pe *table, int64_t lo, int64_t hi, int64_t r,
                  const double *x, double *y)
{
    for (int64_t i = lo; i < hi; i++) {
        const packed_pe *pe = table + i;
        packed_product(pe->n_node, r, pe->ptr, pe->upper, pe->nbr, pe->ref,
                       pe->blocks, x + pe->offset * r, y + pe->offset * r);
    }
}

/* An exchange over one buffer of rows of r doubles: with take, first
 * snapshot[w] = buffer[send_pos[w]] for every word w; then
 * buffer[recv_pos[w]] += snapshot[w] in ascending w.  The words are in
 * (round, destination) order, so each destination row adds its
 * contributions in round order -- the order of the plan's vectorised
 * rounds, one add per word -- and the bits are theirs. */
void exchange_sum(int64_t n_word, int64_t r, const int64_t *send_pos,
                  const int64_t *recv_pos, int take,
                  double *restrict snapshot, double *restrict buffer)
{
    if (r == 1) {
        if (take)
            for (int64_t w = 0; w < n_word; w++)
                snapshot[w] = buffer[send_pos[w]];
        for (int64_t w = 0; w < n_word; w++)
            buffer[recv_pos[w]] += snapshot[w];
        return;
    }
    if (take)
        for (int64_t w = 0; w < n_word; w++)
            memcpy(snapshot + w * r, buffer + send_pos[w] * r,
                   (size_t)r * sizeof *snapshot);
    for (int64_t w = 0; w < n_word; w++) {
        double *row = buffer + recv_pos[w] * r;
        const double *add = snapshot + w * r;
        for (int64_t c = 0; c < r; c++)
            row[c] += add[c];
    }
}

/* A vector kept in the layout's buffer form, made whole again: row
 * dst[w] of buffer (rows of r doubles) takes row src[w], for every w.
 * No dst row is a src row (dst are non-owner rows, src owner rows), so
 * the order of the copies does not matter. */
void copy_rows(int64_t n_row, int64_t r, const int64_t *src,
               const int64_t *dst, double *buffer)
{
    if (r == 1) {
        for (int64_t w = 0; w < n_row; w++)
            buffer[dst[w]] = buffer[src[w]];
        return;
    }
    for (int64_t w = 0; w < n_row; w++)
        memcpy(buffer + dst[w] * r, buffer + src[w] * r,
               (size_t)r * sizeof *buffer);
}

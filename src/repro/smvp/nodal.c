/* The node-block CSR loop behind the `csr` kernel (repro.smvp.kernels).
 *
 * A Quake stiffness matrix stores one full 3x3 block per coupled node
 * pair, so rows 3b, 3b+1 and 3b+2 have one column list.  The loop reads
 * that list once per node and keeps three accumulators.
 *
 * Bits: every output entry has one accumulator that starts at +0.0 and
 * adds a[k] * x[col[k]] in stored order, multiply and add separately --
 * the order of scipy's csr_matvec / csr_matvecs on a zeroed output.
 * Build with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math (no reassociation, no flush-to-zero).  In the 16- and
 * 8-column tiles vector lanes run across the columns of x, never along
 * a sum.
 */
#include <stdint.h>
#include <string.h>

typedef double v8d __attribute__((vector_size(64)));

/* 1 when every node's three rows share one column list, all of it
 * inside [0, n_col) and every row inside [0, nnz); else 0.  O(nnz). */
int nodal_check(int64_t n_row, int64_t n_col, int64_t nnz,
                const int32_t *indptr, const int32_t *indices)
{
    if (n_row % 3 != 0 || indptr[0] < 0 || indptr[n_row] > nnz)
        return 0;
    for (int64_t row = 0; row < n_row; row += 3) {
        const int32_t p0 = indptr[row], len = indptr[row + 1] - p0;
        if (len < 0 || indptr[row + 2] - indptr[row + 1] != len
            || indptr[row + 3] - indptr[row + 2] != len)
            return 0;
        const int32_t *c0 = indices + p0, *c1 = c0 + len, *c2 = c1 + len;
        for (int32_t k = 0; k < len; k++)
            if (c0[k] < 0 || c0[k] >= n_col || c1[k] != c0[k] || c2[k] != c0[k])
                return 0;
    }
    return 1;
}

/* One node's three rows against 8 * NV columns of x, whose rows are r
 * apart.  NV is a constant at every call, so the 3 * NV accumulators
 * stay in vector registers. */
static inline __attribute__((always_inline)) void
node_tile(const int NV, const int64_t r, const int32_t len,
          const int32_t *col, const double *a, const double *x, double *y)
{
    v8d s0[2], s1[2], s2[2];
    for (int v = 0; v < NV; v++)
        s0[v] = s1[v] = s2[v] = (v8d){0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    for (int32_t k = 0; k < len; k++) {
        const double *xk = x + (int64_t)col[k] * r;
        const double a0 = a[k], a1 = a[len + k], a2 = a[2 * len + k];
        for (int v = 0; v < NV; v++) {
            v8d xv;
            memcpy(&xv, xk + 8 * v, sizeof xv);
            s0[v] += a0 * xv;
            s1[v] += a1 * xv;
            s2[v] += a2 * xv;
        }
    }
    for (int v = 0; v < NV; v++) {
        memcpy(y + 8 * v, &s0[v], sizeof s0[v]);
        memcpy(y + r + 8 * v, &s1[v], sizeof s1[v]);
        memcpy(y + 2 * r + 8 * v, &s2[v], sizeof s2[v]);
    }
}

/* The same for the last W = 4, 2 or 1 columns, in scalars. */
static inline __attribute__((always_inline)) void
node_narrow(const int W, const int64_t r, const int32_t len,
            const int32_t *col, const double *a, const double *x, double *y)
{
    double s0[4] = {0.0}, s1[4] = {0.0}, s2[4] = {0.0};
    for (int32_t k = 0; k < len; k++) {
        const double *xk = x + (int64_t)col[k] * r;
        const double a0 = a[k], a1 = a[len + k], a2 = a[2 * len + k];
        for (int w = 0; w < W; w++) {
            s0[w] += a0 * xk[w];
            s1[w] += a1 * xk[w];
            s2[w] += a2 * xk[w];
        }
    }
    for (int w = 0; w < W; w++) {
        y[w] = s0[w];
        y[r + w] = s1[w];
        y[2 * r + w] = s2[w];
    }
}

/* y = A x for n_node node triples of rows; x is (n_col, r) and y
 * (3 n_node, r), both C-contiguous.  Columns run in tiles of width
 * 16, then one each of 8, 4, 2 and 1 as the remainder needs. */
void nodal_product(int64_t n_node, int64_t r, const int32_t *indptr,
                   const int32_t *indices, const double *data,
                   const double *x, double *y)
{
    for (int64_t b = 0; b < n_node; b++) {
        const int32_t p0 = indptr[3 * b], len = indptr[3 * b + 1] - p0;
        const int32_t *col = indices + p0;
        const double *a = data + p0;
        double *yb = y + 3 * b * r;
        if (r == 1) {
            node_narrow(1, 1, len, col, a, x, yb);
            continue;
        }
        int64_t c = 0;
        for (; c + 16 <= r; c += 16)
            node_tile(2, r, len, col, a, x + c, yb + c);
        if (r - c >= 8) {
            node_tile(1, r, len, col, a, x + c, yb + c);
            c += 8;
        }
        if (r - c >= 4) {
            node_narrow(4, r, len, col, a, x + c, yb + c);
            c += 4;
        }
        if (r - c >= 2) {
            node_narrow(2, r, len, col, a, x + c, yb + c);
            c += 2;
        }
        if (r - c >= 1)
            node_narrow(1, r, len, col, a, x + c, yb + c);
    }
}

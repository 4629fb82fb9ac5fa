/* The central-difference update behind repro.fem.timestepper.
 *
 * One pass over an n x r state (r = 1: a vector) reads f, Ku, u,
 * u_prev, M^-1 and alpha once per entry, writes the new state, and
 * returns the step's peak |u_next| and kinetic sum beside it.
 *
 * Bits: every entry is built with the operations, in the order, of the
 * whole-array formula
 *
 *   a = 0.5 alpha dt;   w = f - Ku;  w = M^-1 w;  w = (dt dt) w;
 *   o = 2 u;  b = (1 - a) u_prev;  o = o - b;  o = o + w;  o = o / (1 + a)
 *
 * with f = 0.0 (so 0.0 - Ku) when there is no force.  Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math
 * (no reassociation, no reciprocal for the division), so the state is
 * bit for bit the formula's and column j of an n x r state is the r = 1
 * run of that column.  Vector lanes run across LANES entries that do
 * not depend on each other: the columns of a row (r > 1) or consecutive
 * rows (r = 1).
 *
 * Row map: with pos, row i of Ku, u, u_prev and the new state is row
 * pos[i] of its array (a state kept in an SMVP layout's per-PE buffer
 * form: pos is every dof's owner row), while f, M^-1 and alpha are
 * still read at row i, in the same order and lanes -- so the state's
 * owner rows and the diagnostics are bit for bit those of the gathered
 * arrays.  Rows pos does not name are neither read nor written.
 *
 * Diagnostics: the peak is a max, exact in any order, and NaN when any
 * entry is.  The kinetic sum adds (o - u)^2 of column j (r > 1) or row
 * i (r = 1) into lane j (or i) mod LANES, rows in order, then the lanes
 * in order: the pass's own order, not numpy's pairwise one.
 */
#include <math.h>
#include <stdint.h>
#include "../native.h"

#define LANES 8

/* Running diagnostics, one slot per lane. */
struct diagnostics {
    double top[LANES], kin[LANES];
    int64_t nan[LANES];
};

/* len <= LANES entries; entry l reads f[l fs], m[l ms] and alpha[l as]
 * and goes to lane l; it reads ku, u and up and writes out at k = l, or
 * at k = pos[l] with a row map.  At the full-tile calls len, the steps
 * and a null pos are constants, so the loop becomes straight vector
 * code. */
static inline __attribute__((always_inline)) void
tile(const int len, const int fs, const int ms, const int as,
     const double *f, const double *ku, const double *u, const double *up,
     const double *m, const double *alpha, const double dt, double *out,
     struct diagnostics *acc, const int64_t *pos)
{
    for (int l = 0; l < len; l++) {
        const int64_t k = pos ? pos[l] : l;
        const double a = 0.5 * alpha[l * as] * dt;
        double w = f[l * fs] - ku[k];
        w = m[l * ms] * w;
        w = (dt * dt) * w;
        double o = 2.0 * u[k];
        const double b = (1.0 - a) * up[k];
        o = o - b;
        o = o + w;
        o = o / (1.0 + a);
        out[k] = o;
        const double mag = fabs(o), d = o - u[k];
        acc->top[l] = mag > acc->top[l] ? mag : acc->top[l];
        acc->nan[l] |= mag != mag;
        acc->kin[l] += d * d;
    }
}

/* Whether pos[0 .. LANES) are LANES consecutive rows. */
static inline __attribute__((always_inline)) int
consecutive(const int64_t *pos)
{
    int run = 1;
    for (int l = 1; l < LANES; l++)
        run &= pos[l] == pos[0] + l;
    return run;
}

/* r = 1: tiles of LANES rows.  fs is f's step (0: no force), as
 * alpha's (0: a scalar).  With a row map, a tile whose rows are
 * consecutive runs as the contiguous tile at pos[i] (owner rows mostly
 * are: a PE numbers its nodes in global order); any other reads pos. */
static inline __attribute__((always_inline)) void
vector_rows(const int fs, const int as, int64_t n, const double *f,
            const double *ku, const double *u, const double *up,
            const double *m, const double *alpha, double dt, double *out,
            struct diagnostics *acc, const int64_t *pos)
{
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES) {
        if (pos && !consecutive(pos + i)) {
            tile(LANES, fs, 1, as, f + i * fs, ku, u, up, m + i,
                 alpha + i * as, dt, out, acc, pos + i);
            continue;
        }
        const int64_t at = pos ? pos[i] : i;
        tile(LANES, fs, 1, as, f + i * fs, ku + at, u + at, up + at, m + i,
             alpha + i * as, dt, out + at, acc, 0);
    }
    if (pos)
        tile((int)(n - i), fs, 1, as, f + i * fs, ku, u, up, m + i,
             alpha + i * as, dt, out, acc, pos + i);
    else
        tile((int)(n - i), fs, 1, as, f + i * fs, ku + i, u + i, up + i,
             m + i, alpha + i * as, dt, out + i, acc, 0);
}

/* r > 1: each row in tiles of LANES columns.  f's entry (i, j) is
 * f[i f_row + j fc]; alpha's for row i is alpha[i as]; the state's row
 * i is row pos[i] of its arrays with a row map. */
static inline __attribute__((always_inline)) void
block_rows(const int fc, int64_t n, int64_t r, const double *f,
           int64_t f_row, const double *ku, const double *u,
           const double *up, const double *m, const double *alpha,
           int64_t as, double dt, double *out, struct diagnostics *acc,
           const int64_t *pos)
{
    for (int64_t i = 0; i < n; i++) {
        const double *fi = f + i * f_row, *al = alpha + i * as;
        const int64_t at = (pos ? pos[i] : i) * r;
        int64_t j = 0;
        for (; j + LANES <= r; j += LANES)
            tile(LANES, fc, 0, 0, fi + j * fc, ku + at + j, u + at + j,
                 up + at + j, m + i, al, dt, out + at + j, acc, 0);
        tile((int)(r - j), fc, 0, 0, fi + j * fc, ku + at + j, u + at + j,
             up + at + j, m + i, al, dt, out + at + j, acc, 0);
    }
}

/* Every variant of the pass, pos null or not: called with a literal
 * null, the compiler drops the row map from that copy. */
static inline __attribute__((always_inline)) void
update(int64_t n, int64_t r, const double *f, int64_t f_row, int64_t f_col,
       const double *ku, const double *u, const double *u_prev,
       const double *inv_mass, const double *alpha, int64_t alpha_step,
       double dt, double *out, struct diagnostics *acc, const int64_t *pos)
{
    if (r == 1) {
        if (f_row && alpha_step)
            vector_rows(1, 1, n, f, ku, u, u_prev, inv_mass, alpha, dt,
                        out, acc, pos);
        else if (f_row)
            vector_rows(1, 0, n, f, ku, u, u_prev, inv_mass, alpha, dt,
                        out, acc, pos);
        else if (alpha_step)
            vector_rows(0, 1, n, f, ku, u, u_prev, inv_mass, alpha, dt,
                        out, acc, pos);
        else
            vector_rows(0, 0, n, f, ku, u, u_prev, inv_mass, alpha, dt,
                        out, acc, pos);
    } else if (f_col) {
        block_rows(1, n, r, f, f_row, ku, u, u_prev, inv_mass, alpha,
                   alpha_step, dt, out, acc, pos);
    } else {
        block_rows(0, n, r, f, f_row, ku, u, u_prev, inv_mass, alpha,
                   alpha_step, dt, out, acc, pos);
    }
}

/* f's entry (i, j) is f[i f_row + j f_col]: f_row = f_col = 0 with f
 * one 0.0 (no force), f_row = 1 and f_col = 0 (one force per row, every
 * column), f_row = r and f_col = 1 (a full block).  alpha's entry for
 * row i is alpha[i alpha_step] (alpha_step 0: one scalar).  pos is null
 * or the row map (see the top of this file).  out receives the state,
 * diag[0] the peak and diag[1] the kinetic sum. */
void timestep_update(int64_t n, int64_t r, const double *f, int64_t f_row,
                     int64_t f_col, const double *ku, const double *u,
                     const double *u_prev, const double *inv_mass,
                     const double *alpha, int64_t alpha_step, double dt,
                     double *out, double *diag, const int64_t *pos)
{
    struct diagnostics acc = {{0.0}, {0.0}, {0}};
    if (pos)
        update(n, r, f, f_row, f_col, ku, u, u_prev, inv_mass, alpha,
               alpha_step, dt, out, &acc, pos);
    else
        update(n, r, f, f_row, f_col, ku, u, u_prev, inv_mass, alpha,
               alpha_step, dt, out, &acc, 0);
    double peak = 0.0, kinetic = 0.0;
    int64_t nan = 0;
    for (int l = 0; l < LANES; l++) {
        peak = acc.top[l] > peak ? acc.top[l] : peak;
        nan |= acc.nan[l];
        kinetic += acc.kin[l];
    }
    diag[0] = nan ? NAN : peak;
    diag[1] = kinetic;
}

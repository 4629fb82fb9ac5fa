/* The entries of the package's one native library (repro.util.native).
 *
 * Every C source of the package includes this file, so gcc checks each
 * definition against the declaration cffi reads: repro.util.native
 * hands cffi these lines with the preprocessor lines (those starting
 * with '#') dropped.  Keep every declaration on lines of its own.
 */
#ifndef REPRO_NATIVE_H
#define REPRO_NATIVE_H

#include <stdint.h>

/* smvp/nodal.c: csr's packed node-block loop, the exchange's sums and
 * the resident state's owner-row copy. */
int packed_count(int64_t n_row, int64_t n_col, int64_t nnz,
                 const int32_t *indptr, const int32_t *indices,
                 int64_t *entries, int64_t *blocks);
int packed_pack(int64_t n_node, const int32_t *indptr, const int32_t *indices,
                const double *data, int32_t *ptr, int32_t *upper,
                int32_t *nbr, int32_t *ref, double *blocks, int32_t *cur);
/* One PE's packed state: its arrays, its node count, and the first row
 * of its slice in the layout's x and y buffers (a local stiffness is
 * square, so one offset serves both). */
typedef struct {
    const int32_t *ptr, *upper, *nbr, *ref;
    const double *blocks;
    int64_t n_node, offset;
} packed_pe;
void packed_range(const packed_pe *table, int64_t lo, int64_t hi, int64_t r,
                  const double *x, double *y);
void exchange_sum(int64_t n_word, int64_t r, const int64_t *send_pos,
                  const int64_t *recv_pos, int take, double *snapshot,
                  double *buffer);
void copy_rows(int64_t n_row, int64_t r, const int64_t *src,
               const int64_t *dst, double *buffer);

/* fem/assembly.c: the stiffness pattern and fill, the packed fill, the
 * element geometry, the node graph and a partition's edge counts. */
int64_t assembly_graph(int64_t n_node, int64_t m, const int32_t *tets,
                       int32_t loops, int64_t *inc_ptr, int32_t *inc,
                       int64_t *node_ptr, int32_t *stamp);
void node_graph(int64_t n_node, const int32_t *tets, const int64_t *inc_ptr,
                const int32_t *inc, int32_t *stamp, int64_t *ptr,
                int32_t *nbr);
void assembly_fill(int64_t n_node, const int32_t *tets,
                   const int64_t *inc_ptr, const int32_t *inc,
                   int64_t *node_ptr, int32_t *stamp, int32_t *cols,
                   const double *grads, const double *vol,
                   const double *lam, const double *mu,
                   int32_t *indptr, int32_t *indices, double *data);
int packed_fill(int64_t n_node, const int32_t *tets, const int64_t *inc_ptr,
                const int32_t *inc, int64_t *node_ptr, int32_t *stamp,
                const double *grads, const double *vol, const double *lam,
                const double *mu, int64_t n_block, int32_t *ptr,
                int32_t *upper, int32_t *nbr, int32_t *ref, double *blocks,
                int32_t *cur, double *lower);
int64_t element_geometry(int64_t m, const int64_t *ids, const int64_t *tets,
                         int64_t n_node, const double *points,
                         double *grads, double *vol);
int64_t element_edge_time(int64_t m, const int64_t *tets, int64_t n_node,
                          const double *points, const double *speed,
                          double *out);
int64_t element_signed_volumes(int64_t m, const int64_t *tets,
                               int64_t n_node, const double *points,
                               double *vol);
int64_t element_centroids(int64_t m, const int64_t *tets, int64_t n_node,
                          const double *points, double *out);
int64_t edge_counts(int64_t n_node, int64_t m, const int64_t *tets,
                    const int32_t *parts, int64_t p, const uint8_t *shared,
                    const int64_t *res_ptr, const int32_t *res_pe,
                    const int64_t *ptr, const int32_t *nbr, int64_t *start,
                    int32_t *order, int32_t *stamp, int64_t *edges,
                    int64_t *blocks);

/* fem/timestep.c: the time step's update. */
void timestep_update(int64_t n, int64_t r, const double *f, int64_t f_row,
                     int64_t f_col, const double *ku, const double *u,
                     const double *u_prev, const double *inv_mass,
                     const double *alpha, int64_t alpha_step, double dt,
                     double *out, double *diag, const int64_t *pos);

/* partition/cut.c: the geometric partitioner's cuts and bisection tree,
 * and a partition's node -> part incidence. */
void cut_lift(int64_t n, const double *pts, double *radii, double *lifted);
void cut_weiszfeld(int64_t n, const double *pts, int64_t iterations,
                   double *w, double *guess);
int cut_conformal(int64_t n, const double *lifted, const double *center,
                  double *back);
int64_t cut_map(int64_t n, const double *centroids, int64_t num_elements,
                const int64_t *ids, int64_t iterations, int64_t num_draws,
                const double *draws, double *mapped, double *units,
                double *work);
int64_t cut_score(int64_t n, const double *mapped, const int64_t *tets,
                  int64_t num_elements, const int64_t *ids, int64_t num_nodes,
                  int64_t target_left, const double *units, int64_t k,
                  double *work, uint64_t *flags, uint64_t *acc,
                  int64_t *nodes);
void cut_split(int64_t n, int64_t *ids, uint64_t *flags);
int64_t cut_left_size(int64_t n, int64_t q);
int64_t cut_tree(int64_t n, const double *centroids, const int64_t *tets,
                 int64_t num_elements, int64_t *ids, int64_t num_nodes,
                 int64_t first_part, int64_t q, int64_t iterations,
                 int64_t num_draws, const double *draws, double *mapped,
                 double *units, double *work, uint64_t *flags, uint64_t *acc,
                 int64_t *nodes, int32_t *parts);
int64_t incidence_rows(int64_t n, int64_t m, const int64_t *tets,
                       const int32_t *parts, int64_t p, uint64_t *words,
                       int64_t *indptr);
void incidence_parts(int64_t n, int64_t p, const uint64_t *words,
                     int32_t *indices);

/* mesh/stuffing.c: the octree stuffing's hash table and level passes. */
void stuff_table(int64_t n, const int64_t *keys, const int64_t *ids,
                 int64_t bits, int64_t *table);
int64_t stuff_level(int64_t n, const int64_t *coords, int64_t shift,
                    const int64_t *centers, const int64_t *table,
                    int64_t bits, const int64_t *face27,
                    const int64_t *group_tris, const int64_t *quarters,
                    const int64_t *owners, int32_t *idx, int8_t *groups);
int64_t stuff_write(int64_t n, const int32_t *idx, const int8_t *groups,
                    const int8_t *tris, const int64_t *group_tris,
                    int64_t row, int64_t *tets);

#endif

/* The octree stuffing's per-level passes behind repro.mesh.stuffing.
 *
 * Node keys pack a lattice point (x, y, z) as x << 42 | y << 21 | z.
 * The corner nodes sit in an open-addressing table the caller
 * allocates (2^bits slots of (key, node id) pairs, key -1 when empty,
 * at most half full) and stuff_table fills: a key hashes to the top
 * bits of its product with 2^64 / phi, and a collision steps to the
 * next slot.  Every pass reads the table through its arguments; there
 * is no static or global state, so the passes may run on any thread.
 *
 * stuff_level reads one level's leaves.  For each leaf it looks up its
 * 27 lattice positions (offsets {0, 1, 2}^3 times half the leaf, at
 * 9 i + 3 j + k; the cell center, 13, is the leaf's own center node),
 * computes its six face groups 2 * pattern + anti (face 2 axis + side:
 * pattern masks which of the face's edge midpoints and center are
 * corner nodes, anti is the odd-odd diagonal rule) and counts its tets.
 * It also refuses a leaf whose faces hold a corner node their templates
 * cannot see.  Such a node sits on a quarter point of the face (a
 * neighbour two or more levels finer), and then the half point it
 * subdivides is a node too: so only the quarter points beside a present
 * edge midpoint or face center are looked up.
 *
 * stuff_write then writes the level's tets in the order of the numpy
 * path: face, group ascending (a stable counting sort), leaf, template
 * triangle; each row is the leaf's center followed by the triangle.
 */
#include <stdint.h>
#include "../native.h"

#define PHI64 0x9E3779B97F4A7C15ULL
#define GROUPS 64
#define MAX_TRIS 8
#define QUARTERS 48
/* The bits of the 27 positions that are leaf corners. */
#define CORNERS 0x5140145u

static inline uint64_t slot(int64_t key, int64_t bits)
{
    return ((uint64_t)key * PHI64) >> (64 - bits);
}

/* The node id of key, or -1 when no corner node has it. */
static inline int64_t lookup(const int64_t *table, int64_t bits, int64_t key)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    for (uint64_t h = slot(key, bits);; h = (h + 1) & mask) {
        const int64_t k = table[2 * h];
        if (k == key)
            return table[2 * h + 1];
        if (k < 0)
            return -1;
    }
}

void stuff_table(int64_t n, const int64_t *keys, const int64_t *ids,
                 int64_t bits, int64_t *table)
{
    const uint64_t size = (uint64_t)1 << bits, mask = size - 1;
    for (uint64_t s = 0; s < 2 * size; s++)
        table[s] = -1;
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = slot(keys[i], bits);
        while (table[2 * h] >= 0)
            h = (h + 1) & mask;
        table[2 * h] = keys[i];
        table[2 * h + 1] = ids[i];
    }
}

/* The key of lattice offset (x, y, z) times unit. */
static inline int64_t offset_key(const int64_t *xyz, int64_t unit)
{
    return ((xyz[0] * unit) << 42) + ((xyz[1] * unit) << 21) + xyz[2] * unit;
}

/* One level's n leaves (coords, (n, 3)) at lattice shift `shift`, with
 * their center node ids: fills idx (n, 27; -1 where no corner node is)
 * and groups (n, 6) and returns the level's tet count, or -1 - i for
 * the first leaf i whose faces hold a node their templates cannot see.
 * face27 (6, 9) names each face's lattice positions as _FACE27 does,
 * group_tris (64) the triangles of each group; quarter point j
 * (quarters, QUARTERS x 3, in quarter-leaf units) splits position
 * owners[j]. */
int64_t stuff_level(int64_t n, const int64_t *coords, int64_t shift,
                    const int64_t *centers, const int64_t *table,
                    int64_t bits, const int64_t *face27,
                    const int64_t *group_tris, const int64_t *quarters,
                    const int64_t *owners, int32_t *idx, int8_t *groups)
{
    const int64_t half = (int64_t)1 << (shift - 1);
    int64_t offset[27], quarter[QUARTERS];
    for (int p = 0; p < 27; p++) {
        const int64_t xyz[3] = {p / 9, p / 3 % 3, p % 3};
        offset[p] = offset_key(xyz, half);
    }
    for (int j = 0; j < QUARTERS && shift >= 2; j++)
        quarter[j] = offset_key(quarters + 3 * j, half >> 1);
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *c = coords + 3 * i;
        const int64_t base =
            ((c[0] << shift) << 42) | ((c[1] << shift) << 21) | (c[2] << shift);
        int32_t *id = idx + 27 * i;
        uint32_t present = 0;
        for (int p = 0; p < 27; p++) {
            const int64_t node =
                p == 13 ? centers[i] : lookup(table, bits, base + offset[p]);
            id[p] = (int32_t)node;
            present |= (uint32_t)(p != 13 && node >= 0) << p;
        }
        /* Corners (all coordinates even) are always present; an edge
         * midpoint or face center present may hide quarter points. */
        const uint32_t optional = present & ~CORNERS;
        for (int j = 0; j < QUARTERS && shift >= 2 && optional; j++)
            if ((optional >> owners[j] & 1) &&
                lookup(table, bits, base + quarter[j]) >= 0)
                return -1 - i;
        const int64_t anti[3] = {(c[1] ^ c[2]) & 1, (c[0] ^ c[2]) & 1,
                                 (c[0] ^ c[1]) & 1};
        for (int f = 0; f < 6; f++) {
            const int64_t *labels = face27 + 9 * f;
            int64_t pattern = 0;
            for (int b = 0; b < 5; b++)
                pattern |= (int64_t)(present >> labels[4 + b] & 1) << b;
            const int64_t g = 2 * pattern + anti[f / 2];
            groups[6 * i + f] = (int8_t)g;
            count += group_tris[g];
        }
    }
    return count;
}

/* Writes one level's tets from stuff_level's idx and groups into tets
 * (rows from `row` on) and returns the row after them.  tris (6, 64, 8,
 * 3) holds each face's and group's template triangles as lattice
 * positions. */
int64_t stuff_write(int64_t n, const int32_t *idx, const int8_t *groups,
                    const int8_t *tris, const int64_t *group_tris,
                    int64_t row, int64_t *tets)
{
    for (int f = 0; f < 6; f++) {
        int64_t next[GROUPS] = {0};
        for (int64_t i = 0; i < n; i++)
            next[groups[6 * i + f]]++;
        for (int g = 0; g < GROUPS; g++) {
            const int64_t leaves = next[g];
            next[g] = row;
            row += leaves * group_tris[g];
        }
        for (int64_t i = 0; i < n; i++) {
            const int g = groups[6 * i + f];
            const int64_t nt = group_tris[g];
            const int8_t *t = tris + (f * GROUPS + g) * MAX_TRIS * 3;
            const int32_t *id = idx + 27 * i;
            int64_t *out = tets + 4 * next[g];
            for (int64_t k = 0; k < nt; k++) {
                out[4 * k] = id[13];
                out[4 * k + 1] = id[t[3 * k]];
                out[4 * k + 2] = id[t[3 * k + 1]];
                out[4 * k + 3] = id[t[3 * k + 2]];
            }
            next[g] += nt;
        }
    }
    return row;
}

/* Compiled min-plus kernels behind optpaths.fastlane.
 *
 * Each function mirrors the reference solver of the same name statement
 * for statement, counters included, over the graph's int64 CSR arrays.
 * Node ids are 1-based; every per-node array has n + 1 entries.  Costs are
 * plain int64: the caller refuses graphs whose max_weight * n exceeds
 * INT64_MAX, which bounds every candidate cost + weight below overflow.
 * tags names, per node, the source whose influence labeled it: each source
 * starts tagged with itself and every accepted relaxation copies the new
 * parent's tag.  Every kernel accepts relaxations through relax below,
 * which mirrors partition.relax, the one rule of the reference lane.
 * The optimizer kernels write their counters to out[] in the field order
 * of partition.OptReport: big_loops, node_scans, improvements,
 * regular_way, wrong_way, arc_relaxations.
 *
 * Built on first use by fastlane.py with the system C compiler and called
 * through ctypes; no Python headers are needed.
 */

#include <stdint.h>

/* u offers itself as parent of v over an arc of weight w: v accepts its
 * first label or a strictly cheaper cost; sources are never relabeled.
 * Returns 1 when v accepts. */
static inline int relax(int64_t u, int64_t v, int64_t w, int64_t *parent,
                        int64_t *cost, int64_t *wu, const int64_t *issrc,
                        int64_t *tags)
{
    if (issrc[v])
        return 0;
    int64_t c = cost[u] + w;
    if (parent[v] != 0 && c >= cost[v])
        return 0;
    parent[v] = u;
    cost[v] = c;
    wu[v] = w;
    tags[v] = tags[u];
    return 1;
}

/* Layered partition with upper-rank pulls.  The caller zero-fills every
 * output array; order needs room for every node.  Returns the reached
 * count and stores the arc inspection count in *inspections. */
int64_t optpaths_hda(const int64_t *fptr, const int64_t *fdst,
                     const int64_t *rptr, const int64_t *rsrc,
                     const int64_t *rw, const int64_t *sources,
                     int64_t n_sources, int64_t *order, int64_t *region,
                     int64_t *pos, int64_t *parent, int64_t *cost,
                     int64_t *wu, int64_t *issrc, int64_t *tags,
                     int64_t *inspections)
{
    int64_t count = 0;
    for (int64_t j = 0; j < n_sources; j++) {
        int64_t s = sources[j];
        issrc[s] = 1;
        tags[s] = s;
        order[count] = s;
        count += 1;
        region[s] = 1;
        pos[s] = count;
    }
    int64_t insp = 0;
    int64_t i = 0;
    while (i < count) {
        int64_t u = order[i];
        int64_t reg = region[u];
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            insp += 1;
            int64_t v = fdst[k];
            if (region[v] == 0) {
                region[v] = reg + 1;
                order[count] = v;
                count += 1;
                pos[v] = count;
            }
        }
        for (int64_t k = rptr[u]; k < rptr[u + 1]; k++) {
            insp += 1;
            int64_t v = rsrc[k];
            int64_t rv = region[v];
            if (0 < rv && rv < reg)
                relax(v, u, rw[k], parent, cost, wu, issrc, tags);
        }
        i += 1;
    }
    *inspections = insp;
    return count;
}

/* Origin screening.  status (zero-filled, n + 1 entries) ends at 1 exactly
 * on the origins; returns their count. */
int64_t optpaths_classify(const int64_t *order, int64_t n_order,
                          const int64_t *fptr, const int64_t *fdst,
                          const int64_t *fw, const int64_t *cost,
                          int64_t *status)
{
    for (int64_t idx = 0; idx < n_order; idx++)
        status[order[idx]] = 1;
    for (int64_t idx = 0; idx < n_order; idx++) {
        int64_t u = order[idx];
        int64_t cu = cost[u];
        int improves_any = 0;
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            int64_t v = fdst[k];
            if (cu + fw[k] < cost[v]) {
                status[v] = 0;
                improves_any = 1;
            }
        }
        if (!improves_any)
            status[u] = 0;
    }
    int64_t origins = 0;
    for (int64_t idx = 0; idx < n_order; idx++)
        if (status[order[idx]] == 1)
            origins += 1;
    return origins;
}

/* Full pull sweeps over the discovery order until one accepts nothing;
 * with two_course set, every second sweep runs tail to head. */
void optpaths_eom(const int64_t *order, int64_t n_order,
                  const int64_t *region, const int64_t *rptr,
                  const int64_t *rsrc, const int64_t *rw, int64_t *parent,
                  int64_t *cost, int64_t *wu, const int64_t *issrc,
                  int64_t *tags, int64_t two_course, int64_t *out)
{
    int64_t big_loops = 0;
    int64_t improvements = 0;
    int64_t node_scans = 0;
    int64_t arc_relax = 0;
    int64_t regular = 0;
    int64_t wrong = 0;
    for (;;) {
        int64_t flag = 0;
        int backwards = two_course && (big_loops % 2 == 1);
        for (int64_t idx = 0; idx < n_order; idx++) {
            int64_t u = backwards ? order[n_order - 1 - idx] : order[idx];
            node_scans += 1;
            int64_t ru = region[u];
            for (int64_t k = rptr[u]; k < rptr[u + 1]; k++) {
                int64_t v = rsrc[k];
                if (parent[v] == 0 && issrc[v] == 0)
                    continue;
                arc_relax += 1;
                if (relax(v, u, rw[k], parent, cost, wu, issrc, tags)) {
                    flag += 1;
                    if (ru > region[v])
                        regular += 1;
                    else
                        wrong += 1;
                }
            }
        }
        big_loops += 1;
        improvements += flag;
        if (flag == 0)
            break;
    }
    out[0] = big_loops;
    out[1] = node_scans;
    out[2] = improvements;
    out[3] = regular;
    out[4] = wrong;
    out[5] = arc_relax;
}

/* Origin-driven push relaxation under one worklist pointer rule:
 * code 0 = hrp, 1 = fr, 2 = ht. */
void optpaths_schedule(int64_t code, const int64_t *order, int64_t n_order,
                       const int64_t *region, const int64_t *pos,
                       const int64_t *fptr, const int64_t *fdst,
                       const int64_t *fw, int64_t *parent, int64_t *cost,
                       int64_t *wu, const int64_t *issrc, int64_t *tags,
                       int64_t *status, int64_t *out)
{
    int64_t big_loops = 1;
    int64_t node_scans = 0;
    int64_t improvements = 0;
    int64_t regular = 0;
    int64_t wrong = 0;
    int64_t arc_relax = 0;
    int64_t cycle_flag = 0;
    int64_t chase_start = 0;
    int64_t i = 1;
    for (;;) {
        if (i > n_order) {
            if (cycle_flag == 0)
                break;
            cycle_flag = 0;
            big_loops += 1;
            chase_start = 0;
            i = 1;
            continue;
        }
        int64_t u = order[i - 1];
        node_scans += 1;
        if (status[u] != 1) {
            i += 1;
            continue;
        }
        int64_t best_pos = 0;
        int64_t ru = region[u];
        arc_relax += fptr[u + 1] - fptr[u];
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            int64_t v = fdst[k];
            if (relax(u, v, fw[k], parent, cost, wu, issrc, tags)) {
                improvements += 1;
                cycle_flag += 1;
                status[v] = 1;
                if (region[v] > ru)
                    regular += 1;
                else
                    wrong += 1;
                int64_t pv = pos[v];
                if (best_pos == 0 || pv < best_pos)
                    best_pos = pv;
            }
        }
        status[u] = 0;
        if (best_pos) {
            if (code == 0) {
                i = best_pos < i ? best_pos : i + 1;
            } else {
                if (code == 2 && chase_start == 0)
                    chase_start = i;
                i = best_pos;
            }
        } else {
            if (code == 2 && chase_start) {
                i = chase_start + 1;
                chase_start = 0;
            } else {
                i += 1;
            }
        }
    }
    out[0] = big_loops;
    out[1] = node_scans;
    out[2] = improvements;
    out[3] = regular;
    out[4] = wrong;
    out[5] = arc_relax;
}

/* Compiled min-plus kernels behind optpaths.fastlane.
 *
 * Each solver function mirrors the reference solver of the same name
 * statement for statement, counters included, over the graph's int64 CSR
 * arrays.  Node ids are 1-based; every per-node array has n + 1 entries.
 * Costs are plain int64: the caller refuses graphs whose max_weight * n
 * exceeds INT64_MAX, which bounds every candidate cost + weight below
 * overflow.  tags names, per node, the source whose influence labeled it:
 * each source starts tagged with itself and every accepted relaxation
 * copies the new parent's tag.  Every kernel accepts relaxations through
 * relax below, which mirrors partition.relax, the one rule of the
 * reference lane.  The optimizer kernels write their counters to out[] in
 * the field order of partition.OptReport: big_loops, node_scans,
 * improvements, regular_way, wrong_way, arc_relaxations.
 *
 * optpaths_read is the exception: it is not a copy of the reference
 * reader (graph._scan_arc_block plus graph.build_graph) but a stricter
 * one.  It builds a graph only from an arc block it fully accepts, and
 * refuses everything else without saying why; the caller then hands the
 * block to the reference reader, which builds the same graph or names the
 * fault.  The differential test in tests/test_instance_parser.py certifies
 * that both readers give the same graph wherever this one accepts.
 *
 * Built on first use by fastlane.py with the system C compiler and called
 * through ctypes; no Python headers are needed.
 */

#include <stdint.h>
#include <string.h>

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


static inline int is_sep(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/* Reads the arc block of an instance: s[0..len) is everything after the
 * header line, which declared n nodes and k arcs.  It accepts a block only
 * when every line is blank, a whole-line '#' comment, or three fields
 * [+-]?[0-9]+ separated by spaces, tabs or '\r' (only '\n' ends a line);
 * when there are exactly k arc lines; and when every arc has both ends in
 * 1..n, differing, and a weight in 0..INT64_MAX.  It then fills the arc
 * arrays (k entries each) and the forward CSR -- and for a directed graph
 * the reverse one -- by a stable counting sort, so entries keep arc order
 * and an undirected arc adds its two directions in turn, as build_graph
 * does.  fptr and rptr (n + 2 entries) must arrive zero-filled; fdst and
 * fw hold k entries when directed, 2k when not; rptr, rsrc and rw are
 * unused when undirected.  Returns 0 with stats[0] = the largest
 * out-degree and stats[1] = the largest weight, or 1 to refuse. */
int64_t optpaths_read(const char *s, int64_t len, int64_t n, int64_t k,
                      int64_t directed, int64_t *head, int64_t *tail,
                      int64_t *weight, int64_t *fptr, int64_t *fdst,
                      int64_t *fw, int64_t *rptr, int64_t *rsrc,
                      int64_t *rw, int64_t *stats)
{
    const char *p = s, *end = s + len;
    int64_t count = 0;
    int64_t w_max = 0;
    while (p < end) {
        while (p < end && is_sep(*p))
            p++;
        if (p == end)
            break;
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '#') {
            p = memchr(p, '\n', (size_t)(end - p));
            if (p == NULL)
                break;
            p++;
            continue;
        }
        if (count == k)
            return 1;
        int64_t v[3];
        for (int f = 0; f < 3; f++) {
            if (f > 0) {
                if (p == end || !is_sep(*p))
                    return 1;
                while (p < end && is_sep(*p))
                    p++;
            }
            int neg = 0;
            if (p < end && (*p == '+' || *p == '-')) {
                neg = *p == '-';
                p++;
            }
            if (p == end || *p < '0' || *p > '9')
                return 1;
            int64_t x = 0;
            while (p < end && *p >= '0' && *p <= '9') {
                int64_t d = *p - '0';
                if (x > (INT64_MAX - d) / 10)
                    return 1;
                x = x * 10 + d;
                p++;
            }
            if (neg && x != 0)  /* no field of an accepted arc is negative */
                return 1;
            v[f] = x;
        }
        while (p < end && is_sep(*p))
            p++;
        if (p < end && *p++ != '\n')
            return 1;
        int64_t h = v[0], t = v[1], w = v[2];
        if (h < 1 || h > n || t < 1 || t > n || h == t)
            return 1;
        head[count] = h;
        tail[count] = t;
        weight[count] = w;
        count += 1;
        if (w > w_max)
            w_max = w;
        fptr[h + 1] += 1;
        if (directed)
            rptr[t + 1] += 1;
        else
            fptr[t + 1] += 1;
    }
    if (count != k)
        return 1;

    int64_t m = 0;
    for (int64_t u = 1; u <= n + 1; u++) {
        if (fptr[u] > m)
            m = fptr[u];
        fptr[u] += fptr[u - 1];
        if (directed)
            rptr[u] += rptr[u - 1];
    }
    /* fptr[u] now starts node u's entries; used as its cursor, it ends at
     * the start of node u + 1, and the shift below restores it. */
    for (int64_t i = 0; i < k; i++) {
        int64_t h = head[i], t = tail[i], w = weight[i];
        int64_t j = fptr[h]++;
        fdst[j] = t;
        fw[j] = w;
        if (directed) {
            j = rptr[t]++;
            rsrc[j] = h;
            rw[j] = w;
        } else {
            j = fptr[t]++;
            fdst[j] = h;
            fw[j] = w;
        }
    }
    for (int64_t u = n; u >= 1; u--) {
        fptr[u] = fptr[u - 1];
        if (directed)
            rptr[u] = rptr[u - 1];
    }
    stats[0] = m;
    stats[1] = w_max;
    return 0;
}

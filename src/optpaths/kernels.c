/* Compiled min-plus kernels behind optpaths.fastlane.
 *
 * Each solver function mirrors the reference solver of the same name
 * statement for statement, counters included, over the graph's int64 CSR
 * arrays, which optpaths_check_csr has checked.  Node ids are 1-based;
 * every per-node array has n + 1 entries.  Costs are plain int64: the
 * caller refuses graphs whose max_weight * n exceeds INT64_MAX, which
 * bounds every candidate cost + weight below overflow.  tags names, per
 * node, the source whose influence labeled it: each source starts tagged
 * with itself and every accepted relaxation copies the new parent's tag.
 * No label keeps its arc's weight.  Every kernel accepts relaxations
 * through relax below, which mirrors partition.relax, the one rule of the
 * reference lane.  The optimizer kernels write their counters to out[] in
 * the field order of partition.OptReport: big_loops, node_scans,
 * improvements, regular_way, wrong_way, arc_relaxations.
 *
 * The other kernels certify or refuse, and are not statement-for-statement
 * mirrors of the Python code they stand in for; whatever they refuse, they
 * refuse without saying why, and the reference then decides and names the
 * fault.  optpaths_build assembles the CSR adjacency of an arc list it
 * fully accepts (the reference is the build of graph.py);
 * optpaths_read parses an arc block it fully accepts and builds it
 * (graph._scan_arc_block plus graph.build_graph); optpaths_read_results
 * reads a results file (partition._scan_results); and optpaths_audit
 * answers whether oracles.verify_export would find no failure in a
 * results export.  Differential tests (tests/test_graph.py,
 * tests/test_instance_parser.py and tests/test_results_files.py) certify
 * that each agrees with its reference wherever it accepts.
 * optpaths_format writes the rows of both file kinds, byte for byte as the
 * Python formatters do, and optpaths_draws the splitmix64 draws of the
 * generators, number for number as generators.splitmix64 does.
 *
 * Built on first use by fastlane.py with the system C compiler and called
 * through ctypes; no Python headers are needed.
 */

#include <stdint.h>
#include <string.h>

/* u offers itself as parent of v over an arc of weight w: v accepts its
 * first label or a strictly cheaper cost, and takes u as parent, that cost
 * and u's tag; sources are never relabeled.  Returns 1 when v accepts. */
static inline int relax(int64_t u, int64_t v, int64_t w, int64_t *parent,
                        int64_t *cost, const int64_t *issrc, int64_t *tags)
{
    if (issrc[v])
        return 0;
    int64_t c = cost[u] + w;
    if (parent[v] != 0 && c >= cost[v])
        return 0;
    parent[v] = u;
    cost[v] = c;
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
                     int64_t *issrc, int64_t *tags, int64_t *inspections)
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
                relax(v, u, rw[k], parent, cost, issrc, tags);
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
                  int64_t *cost, const int64_t *issrc, int64_t *tags,
                  int64_t two_course, int64_t *out)
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
                if (relax(v, u, rw[k], parent, cost, issrc, tags)) {
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
                       const int64_t *issrc, int64_t *tags, int64_t *status,
                       int64_t *out)
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
            if (relax(u, v, fw[k], parent, cost, issrc, tags)) {
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

/* Builds the CSR adjacency of k arcs on nodes 1..n.  It accepts the arcs
 * only when every arc has both ends in 1..n, differing, and a weight of at
 * least 0; it then fills the forward CSR -- and for a directed graph the
 * reverse one -- by a stable counting sort, so entries keep arc order and
 * an undirected arc adds its two directions in turn, as the reference
 * build in graph.py does.  fptr and rptr (n + 2 entries) must arrive
 * zero-filled; fdst and fw hold k entries when directed, 2k when not;
 * rptr, rsrc and rw are unused when undirected.  Returns 0 with
 * *max_weight set to the largest weight (0 without arcs), or 1 to refuse. */
int64_t optpaths_build(int64_t n, int64_t k, int64_t directed,
                       const int64_t *head, const int64_t *tail,
                       const int64_t *weight, int64_t *fptr, int64_t *fdst,
                       int64_t *fw, int64_t *rptr, int64_t *rsrc,
                       int64_t *rw, int64_t *max_weight)
{
    int64_t w_max = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t h = head[i], t = tail[i], w = weight[i];
        if (h < 1 || h > n || t < 1 || t > n || h == t || w < 0)
            return 1;
        if (w > w_max)
            w_max = w;
        fptr[h + 1] += 1;
        if (directed)
            rptr[t + 1] += 1;
        else
            fptr[t + 1] += 1;
    }
    for (int64_t u = 1; u <= n + 1; u++) {
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
    *max_weight = w_max;
    return 0;
}

/* Checks a CSR of n nodes whose idx array holds len entries: ptr (n + 2
 * entries) starts at 0, never falls and ends at len, and every idx entry
 * is a node id in 1..n.  Every kernel that walks a CSR relies on this;
 * optpaths_build's CSRs hold it by construction.  Returns 0 when it
 * holds, 1 otherwise. */
int64_t optpaths_check_csr(int64_t n, const int64_t *ptr, const int64_t *idx,
                           int64_t len)
{
    if (ptr[0] != 0 || ptr[n + 1] != len)
        return 1;
    for (int64_t u = 0; u <= n; u++)
        if (ptr[u + 1] < ptr[u])
            return 1;
    for (int64_t k = 0; k < len; k++)
        if (idx[k] < 1 || idx[k] > n)
            return 1;
    return 0;
}

/* Reads the arc block of an instance: s[0..len) is everything after the
 * header line, which declared n nodes and k arcs.  It accepts a block only
 * when every line is blank, a whole-line '#' comment, or three fields
 * [+-]?[0-9]+ in int64 separated by spaces, tabs or '\r' (only '\n' ends
 * a line), and when there are exactly k arc lines.  It fills the arc
 * arrays (k entries each) and hands them to optpaths_build, with the other
 * arrays as that function asks; returns what it returns, or 1 to refuse. */
int64_t optpaths_read(const char *s, int64_t len, int64_t n, int64_t k,
                      int64_t directed, int64_t *head, int64_t *tail,
                      int64_t *weight, int64_t *fptr, int64_t *fdst,
                      int64_t *fw, int64_t *rptr, int64_t *rsrc,
                      int64_t *rw, int64_t *max_weight)
{
    const char *p = s, *end = s + len;
    int64_t count = 0;
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
            v[f] = neg ? -x : x;
        }
        while (p < end && is_sep(*p))
            p++;
        if (p < end && *p++ != '\n')
            return 1;
        head[count] = v[0];
        tail[count] = v[1];
        weight[count] = v[2];
        count += 1;
    }
    if (count != k)
        return 1;
    return optpaths_build(n, k, directed, head, tail, weight, fptr, fdst, fw,
                          rptr, rsrc, rw, max_weight);
}

/* Fills out[0..count) with lo + splitmix64(seed, start + i * stride) %
 * span, the splitmix64 draws of generators.splitmix64 reduced into
 * lo..lo + span - 1; all index arithmetic wraps modulo 2^64 as it does
 * there.  span is at least 1, and lo + span - 1 is at most INT64_MAX. */
void optpaths_draws(uint64_t seed, uint64_t start, uint64_t stride,
                    int64_t count, int64_t lo, uint64_t span, int64_t *out)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t z = seed + (start + (uint64_t)i * stride + 1)
                     * 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        out[i] = lo + (int64_t)(z % span);
    }
}


/* -- result files and instance rows ---------------------------------------- */

/* Writes x in decimal followed by end at *p, when *p is not NULL, and
 * advances *p; returns the length either way. */
static inline int64_t put_field(char **p, int64_t x, char end)
{
    uint64_t u = x < 0 ? -(uint64_t)x : (uint64_t)x;
    int64_t k = 1;
    for (uint64_t t = u; t >= 10; t /= 10)
        k += 1;
    k += x < 0;
    if (*p) {
        char *q = *p + k;
        *q = end;
        do {
            *--q = (char)('0' + u % 10);
            u /= 10;
        } while (u);
        if (x < 0)
            *--q = '-';
        *p += k + 1;
    }
    return k + 1;
}

/* Formats rows lo..hi-1 of ncols int64 columns as text: the fields of row
 * i are cols[0][i] .. cols[ncols - 1][i], each followed by one space, the
 * last by '\n'.  With results set, every row is a node's export row
 * instead: it starts with i, the node id, and when cols[0][i], the
 * node's region, is 0, the node is unreached and its later fields all
 * read 0, except the third (the cost), which reads UNREACHED.  Writes the
 * text to out unless out is NULL, and returns its length, so the caller
 * measures with NULL and then fills a buffer of that length. */
int64_t optpaths_format(int64_t lo, int64_t hi, int64_t results,
                        int64_t ncols, const int64_t *const *cols, char *out)
{
    static const char unreached[] = "UNREACHED";
    int64_t len = 0;
    char *p = out;
    for (int64_t i = lo; i < hi; i++) {
        int reached = !results || cols[0][i] != 0;
        if (results)
            len += put_field(&p, i, ' ');
        for (int64_t j = 0; j < ncols; j++) {
            char end = j + 1 < ncols ? ' ' : '\n';
            if (reached) {
                len += put_field(&p, cols[j][i], end);
            } else if (j == 2) {
                if (p) {
                    memcpy(p, unreached, sizeof unreached - 1);
                    p += sizeof unreached - 1;
                    *p++ = end;
                }
                len += sizeof unreached;
            } else {
                len += put_field(&p, 0, end);
            }
        }
    }
    return len;
}

static inline int is_blank(unsigned char c)
{
    return c == ' ' || c == '\t';
}

/* Reads a results file, s[0..len), for n nodes: one row per node,
 * "<id> <region> <parent> <cost|UNREACHED> [tag]".  Like optpaths_read it
 * is stricter than the reference reader (partition._scan_results) and
 * refuses without saying why.  It accepts only text whose every byte is printable
 * ASCII, a space, a tab or '\n', in which every line is blank, a
 * whole-line '#' comment, or a row of 4 or 5 fields separated by spaces
 * and tabs; each field is [+-]?[0-9]+ of magnitude at most INT64_MAX,
 * the fourth may instead be UNREACHED, and every row has the width of the
 * first.  Ids must be 1..n, each once, parents 0..n, and every node must
 * have a row.  region, parent, cost, has_cost, tags and seen (n + 1
 * entries each) must arrive zero-filled; an UNREACHED row keeps cost and
 * has_cost 0, every other row sets has_cost to 1, and tags is filled only
 * for 5-field rows.  Returns the width, or 0 to refuse. */
int64_t optpaths_read_results(const char *s, int64_t len, int64_t n,
                              int64_t *region, int64_t *parent,
                              int64_t *cost, int64_t *has_cost,
                              int64_t *tags, int64_t *seen)
{
    const unsigned char *p = (const unsigned char *)s, *end = p + len;
    int64_t width = 0, rows = 0;
    while (p < end) {
        while (p < end && is_blank(*p))
            p++;
        if (p == end)
            break;
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '#') {
            for (; p < end && *p != '\n'; p++)
                if ((*p < 0x20 && *p != '\t') || *p > 0x7e)
                    return 0;
            continue;
        }
        int64_t f[5];
        int nf = 0, is_unreached = 0;
        for (;;) {  /* p stands on the first byte of a field */
            if (nf == 5)
                return 0;
            if (nf == 3 && end - p >= 9 && memcmp(p, "UNREACHED", 9) == 0) {
                is_unreached = 1;
                f[nf++] = 0;
                p += 9;
            } else {
                int neg = 0;
                if (*p == '+' || *p == '-') {
                    neg = *p == '-';
                    p++;
                }
                if (p == end || *p < '0' || *p > '9')
                    return 0;
                int64_t x = 0;
                while (p < end && *p >= '0' && *p <= '9') {
                    int64_t d = *p - '0';
                    if (x > (INT64_MAX - d) / 10)
                        return 0;
                    x = x * 10 + d;
                    p++;
                }
                f[nf++] = neg ? -x : x;
            }
            if (p < end && !is_blank(*p) && *p != '\n')
                return 0;
            while (p < end && is_blank(*p))
                p++;
            if (p == end || *p == '\n')
                break;
        }
        if (p < end)
            p++;
        if (nf < 4 || (width != 0 && nf != width))
            return 0;
        width = nf;
        int64_t v = f[0], par = f[2];
        if (v < 1 || v > n || seen[v] || par < 0 || par > n)
            return 0;
        seen[v] = 1;
        rows += 1;
        region[v] = f[1];
        parent[v] = par;
        cost[v] = f[3];
        has_cost[v] = !is_unreached;
        if (nf == 5)
            tags[v] = f[4];
    }
    if (rows != n)
        return 0;
    return width;
}

/* Certifies a results export against the forward CSR of its graph: returns
 * 0 when oracles.verify_export, under min-plus, would report no failure,
 * and 1 otherwise, without saying why; the caller then runs the reference
 * audit, which names every failure.  region, parent, cost and has_cost
 * hold n + 1 entries; has_cost[v] is 0 where the export says UNREACHED.
 * tags is NULL for an export without the tag column.  found, color and
 * level (n + 1 entries) and queue (n) are zero-filled scratch.  The checks
 * are the reference's: parents in 0..n; a root is a reached node (region
 * not 0) without a parent, there is exactly one root without tags and at
 * least two with them, and every root costs 0; an unreached node has no
 * parent and no cost, a reached one has a cost, and its parent is reached,
 * has a cost and reaches it over an arc with cost[p] + w == cost[v]; tags
 * are the root's own id, the parent's tag, or 0 when unreached; every
 * parent chain ends at a root; regions equal the hop levels of a
 * breadth-first search from the roots; and with fixpoint set, no arc out
 * of a node with a cost leads to a node without one or improves it.  A sum
 * past INT64_MAX neither matches a cost nor improves one. */
int64_t optpaths_audit(int64_t n, const int64_t *fptr, const int64_t *fdst,
                       const int64_t *fw, const int64_t *region,
                       const int64_t *parent, const int64_t *cost,
                       const int64_t *has_cost, const int64_t *tags,
                       int64_t fixpoint, int64_t *found, int64_t *color,
                       int64_t *level, int64_t *queue)
{
    int64_t roots = 0;
    for (int64_t v = 1; v <= n; v++) {
        if (parent[v] < 0 || parent[v] > n)
            return 1;
        if (region[v] != 0 && parent[v] == 0) {
            if (!has_cost[v] || cost[v] != 0)
                return 1;
            roots += 1;
            color[v] = 2;
            level[v] = 1;
            queue[roots - 1] = v;
        }
    }
    if (tags ? roots < 2 : roots != 1)
        return 1;

    for (int64_t u = 1; u <= n; u++) {
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            int64_t v = fdst[k], c;
            int fits = has_cost[u] && !__builtin_add_overflow(cost[u], fw[k], &c);
            if (fits && parent[v] == u && has_cost[v] && c == cost[v])
                found[v] = 1;
            if (fixpoint && has_cost[u]
                    && (!has_cost[v] || (fits && c < cost[v])))
                return 1;
        }
    }

    for (int64_t v = 1; v <= n; v++) {
        int64_t p = parent[v];
        if (region[v] == 0) {
            if (p != 0 || has_cost[v])
                return 1;
            continue;
        }
        if (!has_cost[v])
            return 1;
        if (p != 0 && (region[p] == 0 || !has_cost[p] || !found[v]))
            return 1;
        if (tags && tags[v] != (p == 0 ? v : tags[p]))
            return 1;
    }
    if (tags)
        for (int64_t v = 1; v <= n; v++)
            if (region[v] == 0 && tags[v] != 0)
                return 1;

    /* color: 0 unknown, 1 on the current walk, 2 reaches a root.  Every
     * parent of a reached node is reached by now, and only roots lack one. */
    for (int64_t v = 1; v <= n; v++) {
        if (region[v] == 0 || color[v])
            continue;
        int64_t u = v;
        while (color[u] == 0) {
            color[u] = 1;
            u = parent[u];
        }
        if (color[u] == 1)
            return 1;
        for (u = v; color[u] == 1; u = parent[u])
            color[u] = 2;
    }

    int64_t head = 0, tail = roots;
    while (head < tail) {
        int64_t u = queue[head++];
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            int64_t v = fdst[k];
            if (level[v] == 0) {
                level[v] = level[u] + 1;
                queue[tail++] = v;
            }
        }
    }
    for (int64_t v = 1; v <= n; v++)
        if (level[v] != region[v])
            return 1;
    return 0;
}

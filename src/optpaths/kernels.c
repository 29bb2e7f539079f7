/* Compiled min-plus kernels behind optpaths.fastlane.
 *
 * Each solver function mirrors the reference solver of the same name
 * statement for statement, counters included, over the graph's int64 CSR
 * arrays, which optpaths_check_csr has checked.  Node ids are 1-based;
 * every per-node array has n + 1 entries.  Costs are plain int64: the
 * caller refuses graphs whose largest weight, as optpaths_check_csr reads
 * it, times n exceeds INT64_MAX, which bounds every candidate cost + weight
 * below overflow.  No solver carries source tags: optpaths_chain_roots
 * derives them once from the final parent chains.  No label keeps its
 * arc's weight.  Every kernel accepts relaxations through relax below,
 * which mirrors partition.relax, the one rule of the reference lane.  The
 * optimizer kernels read their counters from out[], zeros before the first
 * call, and write them back through report below, in the field order of
 * partition.OptReport: big_loops, node_scans, improvements, regular_way,
 * wrong_way, arc_relaxations.  out[] is the only state they keep across
 * calls.  A call runs at most loops big loops (0: no limit) and returns 1
 * once the run has ended, so the caller can act where the reference loops
 * call debug_check.  Like the reference loops, they count only what they
 * cannot derive, and derive the rest.
 *
 * The other kernels certify or refuse, and are not statement-for-statement
 * mirrors of the Python code they stand in for; whatever they refuse, they
 * refuse without saying why, and the reference then decides and names the
 * fault.  optpaths_build assembles the CSR adjacency of an arc list it
 * fully accepts (the reference is oracles.build_reference);
 * optpaths_read parses an arc block it fully accepts and builds it
 * (oracles.scan_arc_block plus graph.build_graph); optpaths_read_results
 * reads a results file (oracles.scan_results); and one audit,
 * optpaths_audit_block, answers whether oracles.verify_export would find
 * no failure in a results export, straight over the arc block of its
 * instance, with no graph built.  One row scanner, next_row, reads every
 * row of both file kinds, under one rule for blank lines, comments and
 * fields.  Differential tests
 * (tests/test_graph.py, tests/test_instance_parser.py and
 * tests/test_results_files.py) certify that each agrees with its reference
 * wherever it accepts.  optpaths_format writes the rows of both file
 * kinds, byte for byte as the Python formatters do, and optpaths_draws the
 * splitmix64 draws of the generators, number for number as
 * generators.splitmix64 does, random arcs' self-loop skip included.
 *
 * Built on first use by fastlane.py with the system C compiler and called
 * through ctypes; no Python headers are needed.
 */

#include <stdint.h>
#include <string.h>

/* u offers itself as parent of v over an arc of weight w: v accepts its
 * first label or a strictly cheaper cost, and takes u as parent and that
 * cost; sources are never relabeled.  Returns 1 when v accepts. */
static inline int relax(int64_t u, int64_t v, int64_t w, int64_t *parent,
                        int64_t *cost, const int64_t *issrc)
{
    if (issrc[v])
        return 0;
    int64_t c = cost[u] + w;
    if (parent[v] != 0 && c >= cost[v])
        return 0;
    parent[v] = u;
    cost[v] = c;
    return 1;
}

/* Layered partition with upper-rank pulls.  The caller zero-fills every
 * output array; order needs room for every node.  Returns the reached
 * count and stores the arc inspection count in *inspections: a scanned
 * node inspects every arc of its forward and reverse rows. */
int64_t optpaths_hda(const int64_t *fptr, const int64_t *fdst,
                     const int64_t *rptr, const int64_t *rsrc,
                     const int64_t *rw, const int64_t *sources,
                     int64_t n_sources, int64_t *order, int64_t *region,
                     int64_t *pos, int64_t *parent, int64_t *cost,
                     int64_t *issrc, int64_t *inspections)
{
    int64_t count = 0;
    for (int64_t j = 0; j < n_sources; j++) {
        int64_t s = sources[j];
        issrc[s] = 1;
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
        insp += fptr[u + 1] - fptr[u] + rptr[u + 1] - rptr[u];
        for (int64_t k = fptr[u]; k < fptr[u + 1]; k++) {
            int64_t v = fdst[k];
            if (region[v] == 0) {
                region[v] = reg + 1;
                order[count] = v;
                count += 1;
                pos[v] = count;
            }
        }
        for (int64_t k = rptr[u]; k < rptr[u + 1]; k++) {
            int64_t v = rsrc[k];
            int64_t rv = region[v];
            if (0 < rv && rv < reg)
                relax(v, u, rw[k], parent, cost, issrc);
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

/* Writes an optimizer's counters to out[] in the field order of
 * partition.OptReport.  Every improvement not the regular way is the
 * wrong way, so wrong_way is not counted but derived. */
static void report(int64_t *out, int64_t big_loops, int64_t node_scans,
                   int64_t improvements, int64_t regular, int64_t arc_relax)
{
    out[0] = big_loops;
    out[1] = node_scans;
    out[2] = improvements;
    out[3] = regular;
    out[4] = improvements - regular;
    out[5] = arc_relax;
}

/* Full pull sweeps over the discovery order until one accepts nothing;
 * with two_course set, every second sweep runs tail to head.  Every sweep
 * scans every reached node, so node_scans is big_loops * n_order. */
int64_t optpaths_eom(const int64_t *order, int64_t n_order,
                     const int64_t *region, const int64_t *rptr,
                     const int64_t *rsrc, const int64_t *rw, int64_t *parent,
                     int64_t *cost, const int64_t *issrc, int64_t two_course,
                     int64_t loops, int64_t *out)
{
    int64_t big_loops = out[0];
    int64_t improvements = out[2];
    int64_t regular = out[3];
    int64_t arc_relax = out[5];
    int64_t ended;
    do {
        int64_t before = improvements;
        int backwards = two_course && (big_loops % 2 == 1);
        for (int64_t idx = 0; idx < n_order; idx++) {
            int64_t u = backwards ? order[n_order - 1 - idx] : order[idx];
            int64_t ru = region[u];
            for (int64_t k = rptr[u]; k < rptr[u + 1]; k++) {
                int64_t v = rsrc[k];
                if (parent[v] == 0 && issrc[v] == 0)
                    continue;
                arc_relax += 1;
                if (relax(v, u, rw[k], parent, cost, issrc)) {
                    improvements += 1;
                    if (ru > region[v])
                        regular += 1;
                }
            }
        }
        big_loops += 1;
        ended = improvements == before;
    } while (!ended && --loops != 0);
    report(out, big_loops, big_loops * n_order, improvements, regular,
           arc_relax);
    return ended;
}

/* Origin-driven push relaxation under one worklist pointer rule:
 * code 0 = hrp, 1 = fr, 2 = ht.  A big loop that ends with improvements
 * where it began ends the run. */
int64_t optpaths_schedule(int64_t code, const int64_t *order, int64_t n_order,
                          const int64_t *region, const int64_t *pos,
                          const int64_t *fptr, const int64_t *fdst,
                          const int64_t *fw, int64_t *parent, int64_t *cost,
                          const int64_t *issrc, int64_t *status, int64_t loops,
                          int64_t *out)
{
    int64_t big_loops = out[0];
    int64_t node_scans = out[1];
    int64_t improvements = out[2];
    int64_t regular = out[3];
    int64_t arc_relax = out[5];
    int64_t ended;
    do {
        big_loops += 1;
        int64_t loop_start = improvements, chase_start = 0, i = 1;
        while (i <= n_order) {
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
                if (relax(u, v, fw[k], parent, cost, issrc)) {
                    improvements += 1;
                    status[v] = 1;
                    if (region[v] > ru)
                        regular += 1;
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
        ended = improvements == loop_start;
    } while (!ended && --loops != 0);
    report(out, big_loops, node_scans, improvements, regular, arc_relax);
    return ended;
}

/* The one parent-chain walk, of fastlane.FastRun.root_tags and the audit
 * core; oracles._chain_roots is its reference.  For every node with a
 * parent (each parent[v] is 0 or in 1..n), root (zero-filled, n + 1
 * entries) ends at the first node on its chain without one.  Memoized: each
 * node is walked once.  Returns 1 if a chain loops, 0 otherwise. */
int64_t optpaths_chain_roots(int64_t n, const int64_t *parent, int64_t *root)
{
    for (int64_t v = 1; v <= n; v++) {
        int64_t u = v;
        for (; parent[u] != 0 && root[u] == 0; u = parent[u])
            root[u] = -1;  /* on the current walk */
        if (root[u] == -1)
            return 1;
        int64_t end = parent[u] == 0 ? u : root[u];
        for (u = v; root[u] == -1; u = parent[u])
            root[u] = end;
    }
    return 0;
}

/* The one field separator of both file kinds, space or tab: the readers
 * get a file's bytes as graph.text_mode_bytes leaves them, so '\n' is the
 * only line end and no '\r' is left. */
static inline int is_sep(char c)
{
    return c == ' ' || c == '\t';
}

/* Reads the field [+-]?[0-9]+ at p (before end) into *x; returns its end,
 * or NULL to refuse no such field or one whose magnitude exceeds int64. */
static inline const char *read_int(const char *p, const char *end,
                                   int64_t *x)
{
    int neg = 0;
    if (p < end && (*p == '+' || *p == '-')) {
        neg = *p == '-';
        p++;
    }
    if (p == end || *p < '0' || *p > '9')
        return NULL;
    int64_t v = 0;
    for (; p < end && *p >= '0' && *p <= '9'; p++) {
        int64_t d = *p - '0';
        if (v >= INT64_MAX / 10 && (v > INT64_MAX / 10 || d > INT64_MAX % 10))
            return NULL;
        v = v * 10 + d;
    }
    *x = neg ? -v : v;
    return p;
}

/* The word a results row may hold as its cost; optpaths_format writes it. */
static const char unreached[] = "UNREACHED";

/* The one row scanner of both file kinds.  From *pp (before end) it skips
 * blank lines and whole-line '#' comments, whose every byte is printable
 * ASCII or a tab, to the next row, and reads it: at most max fields
 * separated by spaces or tabs, each [+-]?[0-9]+ of magnitude at most
 * INT64_MAX, except that a fourth field may be UNREACHED, which reads as
 * INT64_MIN, a value no digit field gives.  Returns the field count, with
 * the fields in f[0..) and *pp past the row, 0 at the end of the text, or
 * -1 to refuse. */
static inline int next_row(const char **pp, const char *end, int max,
                           int64_t *f)
{
    const char *p = *pp;
    for (;;) {
        while (p < end && is_sep(*p))
            p++;
        if (p < end && *p == '#')  /* a byte past 0x7e is below 0 if signed */
            for (; p < end && *p != '\n'; p++)
                if ((*p < 0x20 && *p != '\t') || *p > 0x7e)
                    return -1;
        if (p == end)
            return 0;
        if (*p != '\n')
            break;
        p++;
    }
    int nf = 0;
    size_t w = sizeof unreached - 1;
    for (;;) {  /* p stands on the first byte of a field */
        if (nf == 3 && (size_t)(end - p) >= w
                && memcmp(p, unreached, w) == 0) {
            f[nf++] = INT64_MIN;
            p += w;
        } else if ((p = read_int(p, end, &f[nf++])) == NULL) {
            return -1;
        }
        if (p < end && !is_sep(*p) && *p != '\n')
            return -1;
        while (p < end && is_sep(*p))
            p++;
        if (p == end || *p == '\n')
            break;
        if (nf == max)
            return -1;
    }
    *pp = p < end ? p + 1 : p;
    return nf;
}

/* Builds the CSR adjacency of k arcs on nodes 1..n.  It accepts the arcs
 * only when every arc has both ends in 1..n, differing, and a weight of at
 * least 0; it then fills the CSRs by a stable counting sort, each arc
 * h -> t putting t in h's forward row and h in t's reverse row.  An
 * undirected graph's reverse CSR is its forward one, so there an arc adds
 * its two directions in turn; entries keep arc order, as in the reference
 * build, oracles.build_reference.  fptr and rptr (n + 2 entries) must
 * arrive zero-filled; fdst and fw hold k entries when directed, 2k when
 * not; rptr, rsrc and rw are ignored when undirected.  Returns 0, or 1 to
 * refuse. */
int64_t optpaths_build(int64_t n, int64_t k, int64_t directed,
                       const int64_t *head, const int64_t *tail,
                       const int64_t *weight, int64_t *fptr, int64_t *fdst,
                       int64_t *fw, int64_t *rptr, int64_t *rsrc,
                       int64_t *rw)
{
    if (!directed) {
        rptr = fptr;
        rsrc = fdst;
        rw = fw;
    }
    for (int64_t i = 0; i < k; i++) {
        int64_t h = head[i], t = tail[i], w = weight[i];
        if (h < 1 || h > n || t < 1 || t > n || h == t || w < 0)
            return 1;
        fptr[h + 1] += 1;
        rptr[t + 1] += 1;
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
        j = rptr[t]++;
        rsrc[j] = h;
        rw[j] = w;
    }
    for (int64_t u = n; u >= 1; u--) {
        fptr[u] = fptr[u - 1];
        if (directed)
            rptr[u] = rptr[u - 1];
    }
    return 0;
}

/* Checks a CSR of n nodes whose idx and w arrays hold len entries: ptr
 * (n + 2 entries) starts at 0, never falls and ends at len, every idx
 * entry is a node id in 1..n, and every w entry is at least 0.  Every
 * kernel that walks a CSR relies on this; optpaths_build's CSRs hold it by
 * construction.  Stores the largest entry of w (0 when len is 0) in
 * *max_weight: the caller bounds the solver kernels' costs by that value,
 * read here from the array, since a caller may have changed the weights
 * after the build.  Returns 0 when the CSR holds, 1 otherwise. */
int64_t optpaths_check_csr(int64_t n, const int64_t *ptr, const int64_t *idx,
                           const int64_t *w, int64_t len, int64_t *max_weight)
{
    if (ptr[0] != 0 || ptr[n + 1] != len)
        return 1;
    for (int64_t u = 0; u <= n; u++)
        if (ptr[u + 1] < ptr[u])
            return 1;
    int64_t w_max = 0;
    for (int64_t k = 0; k < len; k++) {
        if (idx[k] < 1 || idx[k] > n || w[k] < 0)
            return 1;
        if (w[k] > w_max)
            w_max = w[k];
    }
    *max_weight = w_max;
    return 0;
}

/* The arc lines of an instance's arc block, which optpaths_read and
 * optpaths_audit_block share: rows of three fields, both ends in 1..n and
 * differing, and a weight of at least 0.  *count counts the arc lines read
 * so far, of the k that the header declared.  Returns 1 with the arc in
 * arc[0..2] and *pp past its line, 0 at the end of a block of exactly k
 * arcs, or -1 to refuse.  It refuses an arc past the k-th before the
 * caller can store it, which keeps optpaths_read inside its arc arrays. */
static inline int next_arc(const char **pp, const char *end, int64_t n,
                           int64_t k, int64_t *count, int64_t *arc)
{
    int r = next_row(pp, end, 3, arc);
    if (r == 0)
        return *count == k ? 0 : -1;
    if (r != 3 || *count == k || arc[0] < 1 || arc[0] > n || arc[1] < 1
            || arc[1] > n || arc[0] == arc[1] || arc[2] < 0)
        return -1;
    *count += 1;
    return 1;
}

/* Reads the arc block of an instance, s[start..len), everything after the
 * header line, which declared n nodes and k arcs.  It accepts the block
 * when next_arc does, fills the arc arrays (k entries each) and hands them
 * to optpaths_build, with the other arrays as that function asks; returns
 * what it returns, or 1 to refuse. */
int64_t optpaths_read(const char *s, int64_t start, int64_t len, int64_t n,
                      int64_t k, int64_t directed, int64_t *head,
                      int64_t *tail, int64_t *weight, int64_t *fptr,
                      int64_t *fdst, int64_t *fw, int64_t *rptr,
                      int64_t *rsrc, int64_t *rw)
{
    const char *p = s + start, *end = s + len;
    int64_t count = 0, arc[3];
    int r;
    while ((r = next_arc(&p, end, n, k, &count, arc)) == 1) {
        head[count - 1] = arc[0];
        tail[count - 1] = arc[1];
        weight[count - 1] = arc[2];
    }
    if (r < 0)
        return 1;
    return optpaths_build(n, k, directed, head, tail, weight, fptr, fdst, fw,
                          rptr, rsrc, rw);
}

/* Fills out[0..count) with x = lo + splitmix64(seed, start + i * stride) %
 * span, the splitmix64 draws of generators.splitmix64 reduced into
 * lo..lo + span - 1, plus 1 where skip is not NULL and x >= skip[i] (so a
 * random arc's tail skips its head); all index arithmetic wraps modulo 2^64
 * as it does there.  span is at least 1, and lo + span - 1 (plus 1 with
 * skip) is at most INT64_MAX. */
void optpaths_draws(uint64_t seed, uint64_t start, uint64_t stride,
                    int64_t count, int64_t lo, uint64_t span,
                    const int64_t *skip, int64_t *out)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t z = seed + (start + (uint64_t)i * stride + 1)
                     * 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        /* unsigned, since z % span may pass INT64_MAX when lo < 0 */
        int64_t x = (int64_t)((uint64_t)lo + z % span);
        out[i] = skip && x >= skip[i] ? x + 1 : x;
    }
}


/* -- result files and instance rows ---------------------------------------- */

/* Writes x in decimal followed by end at p; returns the end of the text. */
static inline char *put_field(char *p, int64_t x, char end)
{
    uint64_t u = x < 0 ? -(uint64_t)x : (uint64_t)x;
    int64_t k = 1;
    for (uint64_t t = u; t >= 10; t /= 10)
        k += 1;
    k += x < 0;
    char *q = p + k;
    *q = end;
    do {
        *--q = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (x < 0)
        *--q = '-';
    return p + k + 1;
}

/* Formats rows lo..hi-1 of ncols int64 columns as text: the fields of row
 * i are cols[0][i] .. cols[ncols - 1][i], each followed by one space, the
 * last by '\n'.  With results set, every row is a node's export row
 * instead: it starts with i, the node id, and when cols[0][i], the
 * node's region, is 0, the node is unreached and its later fields all
 * read 0, except the third (the cost), which reads UNREACHED.  Writes the
 * text to out and returns its length.  out must hold 21 bytes for every
 * field of every row, ncols fields plus the id with results: a field is at
 * most 20 characters, as -9223372036854775808, and its separator. */
int64_t optpaths_format(int64_t lo, int64_t hi, int64_t results,
                        int64_t ncols, const int64_t *const *cols, char *out)
{
    char *p = out;
    for (int64_t i = lo; i < hi; i++) {
        int reached = !results || cols[0][i] != 0;
        if (results)
            p = put_field(p, i, ' ');
        for (int64_t j = 0; j < ncols; j++) {
            char end = j + 1 < ncols ? ' ' : '\n';
            if (reached) {
                p = put_field(p, cols[j][i], end);
            } else if (j == 2) {
                memcpy(p, unreached, sizeof unreached - 1);
                p += sizeof unreached - 1;
                *p++ = end;
            } else {
                p = put_field(p, 0, end);
            }
        }
    }
    return p - out;
}

/* Reads a results file, s[0..len), for n nodes: one row per node,
 * "<id> <region> <parent> <cost|UNREACHED> [tag]", read by next_row.  Like
 * optpaths_read it is stricter than the reference reader
 * (oracles.scan_results) and refuses without saying why.  It accepts
 * only rows of 4 or 5 fields, every row of the width of the first, with
 * ids in 1..n, each once, parents in 0..n, and a row for every node.
 * region, parent, cost, has_cost, tags and seen (n + 1 entries each) must
 * arrive zero-filled; an UNREACHED row keeps cost and has_cost 0, every
 * other row sets has_cost to 1, and tags is filled only for 5-field rows.
 * Returns the width, or 0 to refuse. */
int64_t optpaths_read_results(const char *s, int64_t len, int64_t n,
                              int64_t *region, int64_t *parent,
                              int64_t *cost, int64_t *has_cost,
                              int64_t *tags, int64_t *seen)
{
    const char *p = s, *end = s + len;
    int64_t width = 0, rows = 0, f[5];
    int nf;
    while ((nf = next_row(&p, end, 5, f)) > 0) {
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
        has_cost[v] = f[3] != INT64_MIN;
        cost[v] = has_cost[v] ? f[3] : 0;
        if (nf == 5)
            tags[v] = f[4];
    }
    if (nf < 0 || rows != n)
        return 0;
    return width;
}

/* -- the audit core ----------------------------------------------------------
 *
 * optpaths_audit_block answers one question about a results export: would
 * oracles.verify_export, under min-plus, report no failure?  It returns 0
 * if so and 1 otherwise, without saying why; the caller then runs the
 * reference audit, which names every failure.  It feeds every arc u -> v
 * of weight w to audit_arc, in any order, and then runs audit_nodes once.
 *
 * The checks are the reference's: parents in 0..n; a root is a reached
 * node (region not 0) without a parent, there is exactly one root without
 * tags and at least two with them, and every root costs 0; an unreached
 * node has no parent and no cost, a reached one has a cost, and its parent
 * is reached, has a cost and reaches it over an arc with cost[p] + w ==
 * cost[v]; tags are the root's own id, the parent's tag, or 0 when
 * unreached; every parent chain ends at a root; regions equal the hop
 * levels of a breadth-first search from the roots; and with fixpoint set,
 * no arc out of a node with a cost leads to a node without one or improves
 * it.  A sum past INT64_MAX neither matches a cost nor improves one.
 *
 * The hop levels need no search.  Let S be the reached nodes and R the
 * roots.  Regions equal the levels exactly when
 *   (a) every root has region 1,
 *   (b) every arc out of a node of S ends in S, and
 *   (c) every non-root v of S has a smallest in-neighbour region over S,
 *       low(v), with low(v) >= 1 and low(v) == region[v] - 1.
 * The levels satisfy (a)-(c): the search labels its roots 1, labels every
 * out-neighbour of a labeled node, gives no labeled in-neighbour of v a
 * level below level(v) - 1, and discovers v from one at exactly
 * level(v) - 1.  Conversely, by (a) and (c) every node of S has region >= 1
 * and only roots have region 1, so stepping from v in S to an in-neighbour
 * in S of region region[v] - 1 reaches a root in region[v] - 1 steps: S is
 * reachable from R, and level(v) <= region[v].  By (b) S holds everything
 * R reaches, and every arc u -> v with u in S has region[v] <=
 * region[u] + 1 (by (c), or by (a) for a root v); so along a shortest path
 * from R, region[v] <= level(v).  Hence region == level on S, and both are
 * 0 off S.
 */

/* A results export under audit: the columns of optpaths_read_results for
 * n nodes, with tags NULL for an export without the tag column, whether
 * the fixpoint condition is asked for, and zero-filled scratch of n + 1
 * entries each: found[v] is set once an arc from v's parent matches its
 * cost, root serves the parent-chain walk, and low[v] is the smallest
 * nonzero region of an in-neighbour of v (0 while there is none). */
struct export {
    int64_t n, fixpoint;
    const int64_t *region, *parent, *cost, *has_cost, *tags;
    int64_t *found, *root, *low;
};

/* The checks of arc u -> v of weight w; returns 1 to refuse. */
static inline int audit_arc(const struct export *x, int64_t u, int64_t v,
                            int64_t w)
{
    int64_t c;
    int fits = x->has_cost[u] && !__builtin_add_overflow(x->cost[u], w, &c);
    if (fits && x->parent[v] == u && x->has_cost[v] && c == x->cost[v])
        x->found[v] = 1;
    if (x->fixpoint && x->has_cost[u]
            && (!x->has_cost[v] || (fits && c < x->cost[v])))
        return 1;
    int64_t ru = x->region[u];
    if (ru != 0) {
        if (x->region[v] == 0)
            return 1;
        if (x->low[v] == 0 || ru < x->low[v])
            x->low[v] = ru;
    }
    return 0;
}

/* The checks of every node, once every arc has passed audit_arc; returns 1
 * to refuse. */
static int audit_nodes(const struct export *x)
{
    int64_t n = x->n, roots = 0;
    const int64_t *region = x->region, *parent = x->parent,
                  *has_cost = x->has_cost, *tags = x->tags;
    for (int64_t v = 1; v <= n; v++) {
        int64_t p = parent[v], r = region[v];
        if (p < 0 || p > n)
            return 1;
        if (r == 0) {
            if (p != 0 || has_cost[v] || (tags && tags[v] != 0))
                return 1;
            continue;
        }
        if (!has_cost[v])
            return 1;
        if (p == 0) {
            if (x->cost[v] != 0 || r != 1 || (tags && tags[v] != v))
                return 1;
            roots += 1;
            continue;
        }
        int64_t lo = x->low[v];  /* r - lo cannot wrap once r > lo >= 1 */
        if (lo < 1 || r <= lo || r - lo != 1)
            return 1;
        if (region[p] == 0 || !has_cost[p] || !x->found[v])
            return 1;
        if (tags && tags[v] != tags[p])
            return 1;
    }
    if (tags ? roots < 2 : roots != 1)
        return 1;
    /* Unreached nodes have no parent and a reached node's parent is
     * reached, so every chain that does not loop ends at a root. */
    return optpaths_chain_roots(n, parent, x->root);
}

/* The audit core's entry point: audits an export against the arc block of
 * its instance, s[start..len), as optpaths_read reads it, without building
 * a graph; an undirected arc is audited in both directions.  It refuses
 * whatever optpaths_read refuses.  region, parent, cost and has_cost hold
 * n + 1 entries, and has_cost[v] is 0 where the export says UNREACHED;
 * tags is NULL for an export without the tag column; found, root and low
 * are zero-filled scratch of n + 1 entries. */
int64_t optpaths_audit_block(const char *s, int64_t start, int64_t len,
                             int64_t n, int64_t k, int64_t directed,
                             const int64_t *region, const int64_t *parent,
                             const int64_t *cost, const int64_t *has_cost,
                             const int64_t *tags, int64_t fixpoint,
                             int64_t *found, int64_t *root, int64_t *low)
{
    struct export x = {n, fixpoint, region, parent, cost, has_cost, tags,
                       found, root, low};
    const char *p = s + start, *end = s + len;
    int64_t count = 0, arc[3];
    int r;
    while ((r = next_arc(&p, end, n, k, &count, arc)) == 1)
        if (audit_arc(&x, arc[0], arc[1], arc[2])
                || (!directed && audit_arc(&x, arc[1], arc[0], arc[2])))
            return 1;
    return r < 0 || audit_nodes(&x);
}

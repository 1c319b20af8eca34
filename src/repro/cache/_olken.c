/* Native kernels, loaded through ctypes by _native.py.
 *
 * olken_stack_distances: Olken / Bennett-Kruskal LRU stack distances in one
 * pass, O(N log N).  A Fenwick tree over time holds a 1 at the last access
 * of every item seen so far, and an open-addressing table maps each label
 * to that position.  An access whose item was last touched at p has stack
 * distance 1 + #{items last touched after p} = 1 + footprint - prefix(p).
 * The Python entry point is repro.cache.stack_distances_with_previous.
 * With distances == NULL the Fenwick tree is skipped.  Either of previous
 * and reuse_counts may be NULL too; reuse_counts, when given, is the
 * reuse-time histogram of the one-pass reuse-time profiler.
 *
 * lru_hits: the LRU hits of one capacity, O(1) work per reference.  The
 * same label table gives every label a dense id, and a doubly linked list
 * over the ids of the resident items is the LRU stack cut at the capacity.
 * Its Python entry point is repro.sim.kernels.lru_sweep_hits, for a grid of
 * one capacity; the validator of a partition run calls it once, on the
 * composed trace.
 *
 * shards_sample: the SHARDS spatial-sampling filter of every hash seed in
 * one call, so sampling stays an order of magnitude cheaper than measuring
 * exactly.
 *
 * fifo_lanes and random_lanes: the FIFO and random-replacement hits of
 * every capacity of a sweep grid, one lane (capacity) at a time over the
 * whole trace.  Their Python entry points are repro.sim.kernels'
 * fifo_sweep_hits and random_sweep_hits.
 *
 * parse_labels: the labels of a text trace file in one pass over its
 * bytes, for the inputs it parses exactly as the Python loop of
 * repro.trace.io.read_text would; on anything else the caller runs that
 * loop instead.
 *
 * crc32_bulk: zlib's CRC-32 with carry-less multiplication, for the
 * checksums that pin checkpoint stores and memmap traces to their data.
 *
 * lower_hull: the lower convex hull of a discretized miss curve, the
 * monotone chain of repro.alloc.curves.lower_convex_hull with the same
 * double expression evaluated in the same order.  _native.py builds with
 * -ffp-contract=off, so no fused multiply-add rounds the cross products
 * differently from Python's floats, and the hulls are bit-identical.  The
 * Talus-style allocator builds one per tenant at every online controller
 * consult.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Fibonacci hashing with the slot from the top bits: strided labels
 * (multiples of 2^k) share their low bits and would pile into one run. */
static uint64_t slot(int64_t label, int bits)
{
    return ((uint64_t)label * 0x9E3779B97F4A7C15ull) >> (64 - bits);
}

/* An insert-only open-addressing table from labels to non-negative values;
 * a value of -1 marks an empty slot.  Kernels keep it by value, so no
 * output array they write can alias its fields. */
struct labels {
    int bits;
    int64_t used, mask, *keys, *values;
};

/* A table of 2^bits empty slots holding `used` labels, or one with NULL
 * keys when memory runs out. */
static struct labels labels_empty(int bits, int64_t used)
{
    struct labels table = {bits, used, ((int64_t)1 << bits) - 1, malloc(sizeof(int64_t) << bits),
                           malloc(sizeof(int64_t) << bits)};
    if (!table.keys || !table.values) {
        free(table.keys), free(table.values);
        table.keys = table.values = NULL;
        return table;
    }
    for (int64_t i = 0; i <= table.mask; i++)
        table.values[i] = -1;
    return table;
}

static void labels_free(struct labels table)
{
    free(table.keys), free(table.values);
}

/* The slot holding label, or the empty slot where it goes.  A caller that
 * fills an empty slot stores the key and counts it in `used`. */
static uint64_t labels_find(struct labels table, int64_t label)
{
    uint64_t s = slot(label, table.bits);
    while (table.values[s] >= 0 && table.keys[s] != label)
        s = (s + 1) & table.mask;
    return s;
}

/* Whether one more label would fill more than half of the table. */
static int labels_full(struct labels table)
{
    return 2 * (table.used + 1) > table.mask + 1;
}

/* The table rehashed into twice as many slots; the old one is freed.  The
 * result has NULL keys when memory runs out. */
static struct labels labels_grown(struct labels table)
{
    struct labels grown = labels_empty(table.bits + 1, table.used);
    for (int64_t i = 0; grown.keys && i <= table.mask; i++) {
        if (table.values[i] < 0)
            continue;
        uint64_t s = labels_find(grown, table.keys[i]);
        grown.keys[s] = table.keys[i], grown.values[s] = table.values[i];
    }
    labels_free(table);
    return grown;
}

/* Fills distances[t] (INT64_MAX when cold) and previous[t] (-1 when cold),
 * each unless NULL, and adds one to reuse_counts[t - previous[t]] for every
 * reuse and to reuse_counts[0] for every cold access, unless reuse_counts
 * is NULL (it holds n + 1 zeros on entry).  The label table maps each item
 * to its last position.  Returns 0, or -1 when memory runs out. */
int olken_stack_distances(const int64_t *trace, int64_t n, int64_t *distances, int64_t *previous,
                          int64_t *reuse_counts)
{
    struct labels last = labels_empty(6, 0);
    int64_t *tree = distances ? calloc((size_t)n + 1, sizeof *tree) : NULL;
    if (!last.keys || (distances && !tree))
        goto fail;
    for (int64_t t = 0; t < n; t++) {
        if (labels_full(last) && !(last = labels_grown(last)).keys)
            goto fail;
        uint64_t s = labels_find(last, trace[t]);
        int64_t p = last.values[s];
        if (previous)
            previous[t] = p;
        if (reuse_counts)
            reuse_counts[p < 0 ? 0 : t - p]++;
        last.values[s] = t;
        if (p < 0) {
            last.keys[s] = trace[t];
            last.used++;
        }
        if (!distances)
            continue;
        if (p < 0) {
            distances[t] = INT64_MAX;
        } else {
            int64_t before = 0;
            for (int64_t j = p + 1; j > 0; j -= j & -j)
                before += tree[j];
            distances[t] = last.used - before + 1;
            for (int64_t j = p + 1; j <= n; j += j & -j)
                tree[j]--;
        }
        for (int64_t j = t + 1; j <= n; j += j & -j)
            tree[j]++;
    }
    labels_free(last), free(tree);
    return 0;
fail:
    labels_free(last), free(tree);
    return -1;
}

/* LRU hits of one capacity >= 1 over n >= 1 references.  The label table
 * gives each item a dense id on its first access; `newer` and `older` link
 * the resident ids from the most (head) to the least (tail) recently used,
 * so a hit moves its id to the head and a miss in a full cache evicts the
 * tail.  Returns the hits, or -1 when memory runs out. */
int64_t lru_hits(const int64_t *trace, int64_t n, int64_t capacity)
{
    struct labels ids = labels_empty(6, 0);
    int64_t *newer = malloc(sizeof *newer * (size_t)n), *older = malloc(sizeof *older * (size_t)n);
    unsigned char *resident = calloc((size_t)n, 1);
    int64_t head = -1, tail = -1, size = 0, hits = 0;
    if (!ids.keys || !newer || !older || !resident)
        goto fail;
    for (int64_t t = 0; t < n; t++) {
        if (labels_full(ids) && !(ids = labels_grown(ids)).keys)
            goto fail;
        uint64_t s = labels_find(ids, trace[t]);
        int64_t id = ids.values[s];
        if (id < 0) {
            id = ids.values[s] = ids.used++;
            ids.keys[s] = trace[t];
        } else if (resident[id]) {
            hits++;
            if (id == head)
                continue;
            older[newer[id]] = older[id]; /* unlink: id is not the head */
            if (older[id] >= 0)
                newer[older[id]] = newer[id];
            else
                tail = newer[id];
            newer[id] = -1, older[id] = head, newer[head] = id, head = id;
            continue;
        }
        if (size == capacity) { /* evict the tail */
            int64_t victim = tail;
            resident[victim] = 0;
            tail = newer[victim];
            if (tail >= 0)
                older[tail] = -1;
            else
                head = -1;
        } else {
            size++;
        }
        resident[id] = 1;
        newer[id] = -1, older[id] = head;
        if (head >= 0)
            newer[head] = id;
        else
            tail = id;
        head = id;
    }
    labels_free(ids), free(newer), free(older), free(resident);
    return hits;
fail:
    labels_free(ids), free(newer), free(older), free(resident);
    return -1;
}

/* Writes the lower-hull vertex indices of the points (j, p[j]), j = 0 ..
 * n - 1, to hull (room for n) in increasing order and returns how many.  A
 * vertex k between i and j is dropped when slope(i -> k) >= slope(k -> j):
 * on or above the chord, collinear points included. */
int64_t lower_hull(const double *p, int64_t n, int64_t *hull)
{
    int64_t size = 0;
    for (int64_t j = 0; j < n; j++) {
        double v = p[j];
        while (size >= 2) {
            int64_t i = hull[size - 2], k = hull[size - 1];
            if (!((p[k] - p[i]) * (double)(j - k) >= (v - p[k]) * (double)(k - i)))
                break;
            size--;
        }
        hull[size++] = j;
    }
    return size;
}

/* repro.profiling.shards.spatial_hash before the mask: splitmix64 of
 * (label << 20) ^ tweak. */
static uint64_t spatial_hash(int64_t label, uint64_t tweak)
{
    uint64_t z = (((uint64_t)label << 20) ^ tweak) + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/* SHARDS spatial sampling for k hash seeds: for seed j, writes to
 * positions + j * capacity, in order, the first `capacity` positions t
 * whose label hashes (masked) below thresholds[j], and sets counts[j] to
 * how many there are in all (more than capacity when they did not fit).
 * When the labels span a range no wider than the trace (dense item ids)
 * and k <= 8, each label of the range is hashed once per seed into a table
 * holding one bit per seed, and one pass over the trace looks its labels
 * up. */
void shards_sample(const int64_t *trace, int64_t n, int64_t k, const uint64_t *tweaks, uint64_t mask,
                   const uint64_t *thresholds, int64_t capacity, int64_t *positions, int64_t *counts)
{
    int64_t lo = n ? trace[0] : 0, hi = lo;
    for (int64_t t = 1; t < n; t++) {
        lo = trace[t] < lo ? trace[t] : lo;
        hi = trace[t] > hi ? trace[t] : hi;
    }
    uint64_t span = (uint64_t)hi - (uint64_t)lo;
    uint8_t *sampled = k <= 8 && span < (uint64_t)n ? calloc(span + 1, 1) : NULL;
    for (int64_t j = 0; j < k; j++)
        counts[j] = 0;
    if (sampled) {
        for (int64_t j = 0; j < k; j++)
            for (uint64_t v = 0; v <= span; v++)
                sampled[v] |= ((spatial_hash((int64_t)((uint64_t)lo + v), tweaks[j]) & mask) < thresholds[j]) << j;
        for (int64_t t = 0; t < n; t++) {
            unsigned bits = sampled[(uint64_t)trace[t] - (uint64_t)lo];
            for (int64_t j = 0; bits; j++, bits >>= 1)
                if ((bits & 1) && counts[j]++ < capacity)
                    positions[j * capacity + counts[j] - 1] = t;
        }
        free(sampled);
        return;
    }
    for (int64_t j = 0; j < k; j++) { /* sparse labels: hash every reference */
        int64_t *out = positions + j * capacity, count = 0;
        uint64_t tweak = tweaks[j], threshold = thresholds[j];
        for (int64_t t = 0; t < n; t++)
            if ((spatial_hash(trace[t], tweak) & mask) < threshold && count++ < capacity)
                out[count - 1] = t;
        counts[j] = count;
    }
}

/* A table of count >= 1 int64 entries, or NULL when it cannot be allocated. */
static int64_t *table(int64_t count)
{
    if ((uint64_t)count > SIZE_MAX / sizeof(int64_t))
        return NULL;
    return malloc(sizeof(int64_t) * (size_t)count);
}

/* FIFO hits of each capacity: an item is resident exactly when its last
 * insertion is among the lane's `capacity` most recent ones, so a lane is
 * one last-insert index per item and a miss counter.  Every label lies in
 * [0, distinct).  Returns 0, or -1 when memory runs out. */
int fifo_lanes(const int64_t *trace, int64_t n, int64_t distinct, const int64_t *capacities, int64_t lanes,
               int64_t *hits)
{
    int64_t *last_insert = table(distinct);
    if (!last_insert)
        return -1;
    for (int64_t k = 0; k < lanes; k++) {
        int64_t capacity = capacities[k], misses = 0, count = 0;
        for (int64_t i = 0; i < distinct; i++)
            last_insert[i] = INT64_MIN;
        for (int64_t t = 0; t < n; t++) {
            if (last_insert[trace[t]] >= misses - capacity)
                count++;
            else
                last_insert[trace[t]] = misses++;
        }
        hits[k] = count;
    }
    free(last_insert);
    return 0;
}

/* Random-replacement hits of each capacity: a lane fills its slots in order,
 * then a miss at t evicts slot (int64_t)(deviates[t] * capacity), the double
 * product numpy computes.  A lane never holds more than `distinct` items,
 * so a larger capacity is the footprint and never evicts.  Every label lies
 * in [0, distinct).  Returns 0, or -1 when memory runs out. */
int random_lanes(const int64_t *trace, int64_t n, int64_t distinct, const int64_t *capacities, int64_t lanes,
                 const double *deviates, int64_t *hits)
{
    int64_t widest = 0;
    for (int64_t k = 0; k < lanes; k++)
        widest = capacities[k] > widest ? capacities[k] : widest;
    int64_t *position = table(distinct), *slots = table(widest < distinct ? widest : distinct);
    if (!position || !slots) {
        free(position), free(slots);
        return -1;
    }
    for (int64_t k = 0; k < lanes; k++) {
        int64_t capacity = capacities[k] < distinct ? capacities[k] : distinct, occupancy = 0, count = 0;
        for (int64_t i = 0; i < distinct; i++)
            position[i] = -1;
        for (int64_t t = 0; t < n; t++) {
            int64_t item = trace[t], s = occupancy;
            if (position[item] >= 0) {
                count++;
                continue;
            }
            if (occupancy < capacity) {
                occupancy++;
            } else {
                s = (int64_t)(deviates[t] * (double)capacity);
                position[slots[s]] = -1;
            }
            slots[s] = item, position[item] = s;
        }
        hits[k] = count;
    }
    free(position), free(slots);
    return 0;
}

static int blank(unsigned char c)
{
    return c == ' ' || c == '\t';
}

static int line_end(unsigned char c)
{
    return c == '\n' || c == '\r';
}

/* Parses the labels of a text trace: lines holding a label (an optional
 * sign and at most 19 decimal digits, padded by spaces or tabs), blank
 * lines and `#` comments, each line ended by \n or \r.  Writes the labels
 * to `labels`, which has room for one per line, and sets name[0], name[1]
 * to the byte range after `name:` of the first comment whose text starts
 * with it (past spaces and tabs), or both to -1.  Returns the label count,
 * or -1 when the text holds anything else: a byte outside ASCII, a control
 * character other than a tab or a line end, a negative label, a label past
 * INT64_MAX or more than 19 digits (Python's int() caps the digits,
 * leading zeros included).  Every text that str.splitlines, str.strip or
 * int() could read differently is rejected; the caller's Python loop then
 * gives the result or the error. */
int64_t parse_labels(const unsigned char *text, int64_t len, int64_t *labels, int64_t *name)
{
    int64_t count = 0, i = 0;
    name[0] = name[1] = -1;
    while (i < len) {
        while (i < len && blank(text[i]))
            i++;
        if (i == len || line_end(text[i])) {
            i++;
            continue;
        }
        if (text[i] == '#') {
            int64_t start = ++i;
            for (; i < len && !line_end(text[i]); i++)
                if ((text[i] < 0x20 && text[i] != '\t') || text[i] >= 0x80)
                    return -1;
            while (start < i && blank(text[start]))
                start++;
            if (name[0] < 0 && i - start >= 5 && !memcmp(text + start, "name:", 5))
                name[0] = start + 5, name[1] = i;
            continue;
        }
        int negative = text[i] == '-';
        if (text[i] == '-' || text[i] == '+')
            i++;
        int64_t first = i;
        uint64_t value = 0;
        for (; i < len && text[i] >= '0' && text[i] <= '9'; i++)
            value = 10 * value + (uint64_t)(text[i] - '0');
        if (i == first || i - first > 19 || value > INT64_MAX || (negative && value))
            return -1; /* 19 digits never overflow the uint64 */
        while (i < len && blank(text[i]))
            i++;
        if (i < len && !line_end(text[i]))
            return -1;
        labels[count++] = (int64_t)value;
    }
    return count;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

/* CRC-32 (reflected 0xEDB88320, no pre/post inversion) of len >= 64 bytes,
 * len a multiple of 16: four 128-bit lanes folded 64 bytes at a time, then
 * folded into one lane, reduced to 64 bits and Barrett-reduced to 32
 * (Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ").
 * The constants are x^k mod P for the fold distances, and P with its
 * Barrett quotient. */
__attribute__((target("pclmul,sse4.1"))) static uint32_t crc32_fold(const unsigned char *buf, size_t len,
                                                                    uint32_t crc)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x[4];
    for (int i = 0; i < 4; i++)
        x[i] = _mm_loadu_si128((const __m128i *)(buf + 16 * i));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128((int)crc));
    for (buf += 64, len -= 64; len >= 64; buf += 64, len -= 64)
        for (int i = 0; i < 4; i++)
            x[i] = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x[i], k1k2, 0x11),
                                               _mm_clmulepi64_si128(x[i], k1k2, 0x00)),
                                 _mm_loadu_si128((const __m128i *)(buf + 16 * i)));
    __m128i acc = x[0];
    for (int i = 1; i < 4; i++)
        acc = _mm_xor_si128(
            _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x11), _mm_clmulepi64_si128(acc, k3k4, 0x00)), x[i]);
    for (; len >= 16; buf += 16, len -= 16)
        acc = _mm_xor_si128(
            _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x11), _mm_clmulepi64_si128(acc, k3k4, 0x00)),
            _mm_loadu_si128((const __m128i *)buf));
    acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
    acc = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00), _mm_srli_si128(acc, 4));
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return (uint32_t)_mm_extract_epi32(_mm_xor_si128(acc, q), 1);
}

/* Advances *crc (zlib.crc32's running value) over the first len & ~15
 * bytes of buf and returns how many bytes that was: 0 for fewer than 64
 * bytes or a CPU without PCLMULQDQ.  The caller finishes the rest. */
int64_t crc32_bulk(const unsigned char *buf, int64_t len, uint32_t *crc)
{
    if (len < 64 || !__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("sse4.1"))
        return 0;
    int64_t done = len & ~(int64_t)15;
    *crc = ~crc32_fold(buf, (size_t)done, ~*crc);
    return done;
}
#else
int64_t crc32_bulk(const unsigned char *buf, int64_t len, uint32_t *crc)
{
    (void)buf, (void)len, (void)crc;
    return 0;
}
#endif

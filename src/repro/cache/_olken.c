/* Native kernels, loaded through ctypes by _native.py.
 *
 * olken_stack_distances: Olken / Bennett-Kruskal LRU stack distances in one
 * pass, O(N log N).  A Fenwick tree over time holds a 1 at the last access
 * of every item seen so far, and an open-addressing table maps each label
 * to that position.  An access whose item was last touched at p has stack
 * distance 1 + #{items last touched after p} = 1 + footprint - prefix(p).
 * The Python entry point is repro.cache.stack_distances_with_previous.
 * With distances == NULL the Fenwick tree is skipped: the previous-occurrence
 * pass of the reuse-time profiler.  Either of previous and reuse_counts may
 * be NULL too; reuse_counts, when given, is the reuse-time histogram.
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
 * crc32_bulk: zlib's CRC-32 with carry-less multiplication, for the
 * checksums that pin checkpoint stores and memmap traces to their data.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* Fibonacci hashing with the slot from the top bits: strided labels
 * (multiples of 2^k) share their low bits and would pile into one run. */
static uint64_t slot(int64_t label, int bits)
{
    return ((uint64_t)label * 0x9E3779B97F4A7C15ull) >> (64 - bits);
}

/* Fills distances[t] (INT64_MAX when cold) and previous[t] (-1 when cold),
 * each unless NULL, and adds one to reuse_counts[t - previous[t]] for every
 * reuse and to reuse_counts[0] for every cold access, unless reuse_counts
 * is NULL (it holds n + 1 zeros on entry).  Returns 0, or -1 when memory
 * runs out. */
int olken_stack_distances(const int64_t *trace, int64_t n, int64_t *distances, int64_t *previous,
                          int64_t *reuse_counts)
{
    int bits = 6;
    int64_t used = 0, mask = (1 << bits) - 1;
    int64_t *keys = malloc(sizeof *keys << bits), *last = malloc(sizeof *last << bits);
    int64_t *tree = distances ? calloc((size_t)n + 1, sizeof *tree) : NULL;
    if (!keys || !last || (distances && !tree))
        goto fail;
    for (int64_t i = 0; i <= mask; i++)
        last[i] = -1;
    for (int64_t t = 0; t < n; t++) {
        if (2 * (used + 1) > mask + 1) { /* keep the load factor at most 1/2 */
            int64_t *old_keys = keys, *old_last = last, old_mask = mask;
            bits++;
            mask = 2 * mask + 1;
            keys = malloc(sizeof *keys << bits);
            last = malloc(sizeof *last << bits);
            if (!keys || !last) {
                free(old_keys), free(old_last);
                goto fail;
            }
            for (int64_t i = 0; i <= mask; i++)
                last[i] = -1;
            for (int64_t i = 0; i <= old_mask; i++) {
                if (old_last[i] < 0)
                    continue;
                uint64_t s = slot(old_keys[i], bits);
                while (last[s] >= 0)
                    s = (s + 1) & mask;
                keys[s] = old_keys[i], last[s] = old_last[i];
            }
            free(old_keys), free(old_last);
        }
        uint64_t s = slot(trace[t], bits);
        while (last[s] >= 0 && keys[s] != trace[t])
            s = (s + 1) & mask;
        int64_t p = last[s];
        if (previous)
            previous[t] = p;
        if (reuse_counts)
            reuse_counts[p < 0 ? 0 : t - p]++;
        last[s] = t;
        if (p < 0) {
            keys[s] = trace[t];
            used++;
        }
        if (!distances)
            continue;
        if (p < 0) {
            distances[t] = INT64_MAX;
        } else {
            int64_t before = 0;
            for (int64_t j = p + 1; j > 0; j -= j & -j)
                before += tree[j];
            distances[t] = used - before + 1;
            for (int64_t j = p + 1; j <= n; j += j & -j)
                tree[j]--;
        }
        for (int64_t j = t + 1; j <= n; j += j & -j)
            tree[j]++;
    }
    free(keys), free(last), free(tree);
    return 0;
fail:
    free(keys), free(last), free(tree);
    return -1;
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
 * positions + j * n, in order, the positions t whose label hashes (masked)
 * below thresholds[j], and sets counts[j] to how many.  When the labels
 * span a range no wider than the trace (dense item ids) and k <= 8, each
 * label of the range is hashed once per seed into a table holding one bit
 * per seed, and one pass over the trace looks its labels up. */
void shards_sample(const int64_t *trace, int64_t n, int64_t k, const uint64_t *tweaks, uint64_t mask,
                   const uint64_t *thresholds, int64_t *positions, int64_t *counts)
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
                if (bits & 1)
                    positions[j * n + counts[j]++] = t;
        }
        free(sampled);
        return;
    }
    for (int64_t j = 0; j < k; j++) { /* sparse labels: hash every reference */
        int64_t *out = positions + j * n, count = 0;
        uint64_t tweak = tweaks[j], threshold = thresholds[j];
        for (int64_t t = 0; t < n; t++)
            if ((spatial_hash(trace[t], tweak) & mask) < threshold)
                out[count++] = t;
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

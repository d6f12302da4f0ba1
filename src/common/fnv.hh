/**
 * @file
 * 64-bit FNV-1a, the library's one content hash: tile digests,
 * checkpoint payload and config digests, report digests, fuzz
 * signatures and clean-frame cache keys.  Tile files, checkpoints and
 * pinned digests depend on the exact byte order below.
 */

#ifndef HIFI_COMMON_FNV_HH
#define HIFI_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/geometry.hh"

namespace hifi
{
namespace common
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// P^8 mod 2^64.  A zero byte leaves `h ^= 0` a no-op, so eight of
/// them amount to one `h *= P^8`.
constexpr uint64_t kFnvPrime8 = [] {
    uint64_t p = 1;
    for (int i = 0; i < 8; ++i)
        p *= kFnvPrime;
    return p;
}();

/// Byte-wise FNV-1a of `n` bytes, continuing from `h`.  All-zero
/// 8-byte words (the zero padding of border tiles, empty space in a
/// volume) take the exact P^8 multiply instead of eight byte steps.
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t word = 0;
        std::memcpy(&word, p + i, sizeof(word));
        if (word == 0) {
            h *= kFnvPrime8;
            continue;
        }
        for (size_t b = i; b < i + 8; ++b) {
            h ^= p[b];
            h *= kFnvPrime;
        }
    }
    for (; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a accumulator over typed fields. */
struct Fnv1a
{
    uint64_t h = kFnvOffset;

    /// Eight bytes, least significant first (on any host).
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= kFnvPrime;
        }
    }

    /// The IEEE-754 bit pattern, as u64.
    void
    f64(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "bit pun");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /// Length, then the characters.
    void
    str(const std::string &s)
    {
        u64(s.size());
        h = fnv1a(s.data(), s.size(), h);
    }

    void
    rect(const Rect &r)
    {
        f64(r.x0);
        f64(r.y0);
        f64(r.x1);
        f64(r.y1);
    }
};

} // namespace common
} // namespace hifi

#endif // HIFI_COMMON_FNV_HH

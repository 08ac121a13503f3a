#ifndef MOC_UTIL_HASH_H_
#define MOC_UTIL_HASH_H_

/**
 * @file
 * 64-bit non-cryptographic hashes: xxHash64, the content-identity hash, and
 * FNV-1a 64, a small hash for short keys.
 *
 * CRC-32C alone is not a content *identity*: it is a 32-bit error-detecting
 * code, and two different expert blobs collide with probability ~2^-32 —
 * far too likely across millions of dedup decisions. Content-addressed
 * paths (whole-blob dedup, per-chunk delta diffing) therefore key on the
 * triple (byte size, CRC-32C, xxHash64): the two hashes have unrelated
 * structure (one linear over GF(2), one built from multiply-rotate rounds
 * mod 2^64), so a simultaneous collision requires ~2^96 luck. CRC-32C alone
 * remains fine for what it was designed for — detecting *corruption* of
 * bytes whose identity is already known.
 *
 * xxHash64 reads 32-byte stripes through four independent accumulators, so
 * it runs at several GB/s where FNV-1a's one-byte-per-multiply chain runs
 * below 1 GB/s. The identity hash is only ever held in memory (the persist
 * pipeline's sealed baseline and delta chunk ids), never written to disk.
 * FNV-1a stays for deriving seeds from short keys.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace moc {

inline constexpr std::uint64_t kFnv1a64Offset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001B3ULL;

/** Incremental FNV-1a 64: feed @p state from a previous call (start with
    kFnv1a64Offset). */
inline std::uint64_t
Fnv1a64Update(std::uint64_t state, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= p[i];
        state *= kFnv1a64Prime;
    }
    return state;
}

/** FNV-1a 64-bit hash of @p data[0..len). */
inline std::uint64_t
Fnv1a64(const void* data, std::size_t len) {
    return Fnv1a64Update(kFnv1a64Offset, data, len);
}

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t
Rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
}

/** Little-endian loads; memcpy keeps them alignment-safe. */
inline std::uint64_t
Read64(const unsigned char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

inline std::uint32_t
Read32(const unsigned char* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap32(v);
#endif
    return v;
}

inline std::uint64_t
Round(std::uint64_t acc, std::uint64_t input) {
    acc += input * kPrime2;
    return Rotl(acc, 31) * kPrime1;
}

inline std::uint64_t
MergeRound(std::uint64_t acc, std::uint64_t val) {
    acc ^= Round(0, val);
    return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/** xxHash64 (seed 0) of @p data[0..len), per the published XXH64 spec. */
inline std::uint64_t
XxHash64(const void* data, std::size_t len) {
    using namespace xxh64_detail;
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t left = len;
    std::uint64_t h = 0;
    if (left >= 32) {
        // Four independent lanes over 32-byte stripes.
        std::uint64_t v1 = kPrime1 + kPrime2;
        std::uint64_t v2 = kPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kPrime1;
        for (; left >= 32; p += 32, left -= 32) {
            v1 = Round(v1, Read64(p));
            v2 = Round(v2, Read64(p + 8));
            v3 = Round(v3, Read64(p + 16));
            v4 = Round(v4, Read64(p + 24));
        }
        h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
        h = MergeRound(h, v1);
        h = MergeRound(h, v2);
        h = MergeRound(h, v3);
        h = MergeRound(h, v4);
    } else {
        h = kPrime5;
    }
    h += static_cast<std::uint64_t>(len);
    // Tail: 8-byte words, then one 4-byte word, then single bytes.
    for (; left >= 8; p += 8, left -= 8) {
        h ^= Round(0, Read64(p));
        h = Rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (left >= 4) {
        h ^= static_cast<std::uint64_t>(Read32(p)) * kPrime1;
        h = Rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
        left -= 4;
    }
    for (; left > 0; ++p, --left) {
        h ^= static_cast<std::uint64_t>(*p) * kPrime5;
        h = Rotl(h, 11) * kPrime1;
    }
    // Avalanche.
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

}  // namespace moc

#endif  // MOC_UTIL_HASH_H_

#include "util/crc32.h"

#include <array>
#include <cstring>

#include "util/crc32_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MOC_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace moc {

namespace {

/**
 * Slice-by-8 table set: table[0] is the classic bytewise table; table[k]
 * advances a byte through k additional zero bytes, so eight lookups fold
 * eight message bytes into the register per iteration instead of one.
 * Same polynomial, bit-identical outputs to the bytewise loop (locked in
 * by the golden-vector and cross-check tests) — only the checkpoint
 * critical path's cost per byte changes.
 */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

SliceTables
MakeTables(std::uint32_t poly) {
    SliceTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) ? poly ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = tables[0][i];
        for (std::size_t t = 1; t < 8; ++t) {
            c = tables[0][c & 0xFFU] ^ (c >> 8);
            tables[t][i] = c;
        }
    }
    return tables;
}

std::uint32_t
TableUpdate(const SliceTables& t, std::uint32_t crc, const void* data,
            std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    crc = ~crc;
    // Byte-at-a-time until the hot loop can take full 8-byte strides.
    while (len >= 8) {
        // Bytes are composed manually (not a uint64 load): alignment- and
        // endianness-independent, and the optimizer fuses the loads anyway.
        crc = t[7][(crc ^ p[0]) & 0xFFU] ^ t[6][((crc >> 8) ^ p[1]) & 0xFFU] ^
              t[5][((crc >> 16) ^ p[2]) & 0xFFU] ^
              t[4][((crc >> 24) ^ p[3]) & 0xFFU] ^ t[3][p[4]] ^ t[2][p[5]] ^
              t[1][p[6]] ^ t[0][p[7]];
        p += 8;
        len -= 8;
    }
    for (std::size_t i = 0; i < len; ++i) {
        crc = t[0][(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
    }
    return ~crc;
}

#ifdef MOC_CRC32C_SSE42
/**
 * CRC-32C on the SSE4.2 `crc32` instruction: the instruction computes the
 * Castagnoli polynomial in its reflected form with no pre/post inversion,
 * so wrapping the loop in the same ~crc as the table path gives
 * bit-identical results. One 8-byte instruction per word, then a byte tail.
 */
__attribute__((target("sse4.2"))) std::uint32_t
Sse42Update(std::uint32_t crc, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t c = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, sizeof(word));
        c = _mm_crc32_u64(c, word);
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; len > 0; ++p, --len) {
        c32 = _mm_crc32_u8(c32, *p);
    }
    return ~c32;
}
#endif

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

/** Picks the CRC-32C implementation once, from the running CPU. */
Crc32cFn
DispatchCrc32c() {
#ifdef MOC_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
        return Sse42Update;
    }
#endif
    return crc32_internal::Crc32cUpdateSliceBy8;
}

Crc32cFn
Crc32cImpl() {
    static const Crc32cFn fn = DispatchCrc32c();
    return fn;
}

}  // namespace

namespace crc32_internal {

std::uint32_t
Crc32cUpdateSliceBy8(std::uint32_t crc, const void* data, std::size_t len) {
    static const auto tables = MakeTables(0x82F63B78U);
    return TableUpdate(tables, crc, data, len);
}

bool
Crc32cUsesHardware() {
    return Crc32cImpl() != Crc32cUpdateSliceBy8;
}

}  // namespace crc32_internal

std::uint32_t
Crc32Update(std::uint32_t crc, const void* data, std::size_t len) {
    static const auto tables = MakeTables(0xEDB88320U);
    return TableUpdate(tables, crc, data, len);
}

std::uint32_t
Crc32(const void* data, std::size_t len) {
    return Crc32Update(0, data, len);
}

std::uint32_t
Crc32cUpdate(std::uint32_t crc, const void* data, std::size_t len) {
    return Crc32cImpl()(crc, data, len);
}

std::uint32_t
Crc32c(const void* data, std::size_t len) {
    return Crc32cUpdate(0, data, len);
}

}  // namespace moc

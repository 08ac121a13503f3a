#ifndef MOC_UTIL_CRC32_H_
#define MOC_UTIL_CRC32_H_

/**
 * @file
 * CRC-32 in two polynomials.
 *
 * Crc32c (Castagnoli, 0x82F63B78) is the one checksum family of the
 * checkpoint path: the FileStore file trailer, the manifest record of
 * every persisted shard and chunk, write read-back verify, the memory
 * replica check on recovery, fsck, and the transport's frame trailer all
 * use it. Tensor encodings carry no checksum of their own, so no blob
 * embeds a CRC of its own sections. That matters because CRC is linear
 * over GF(2): running a CRC across `message || crc(message)` drives the
 * register into a constant state independent of the message, so an outer
 * CRC over sections that end in same-polynomial trailers never sees their
 * payloads (`Crc32c.DifferentPolynomialSeesThroughEmbeddedTrailers`). The
 * FileStore trailer sits outside the blob and ends in a format tag, so no
 * CRC runs across it.
 *
 * Crc32 (IEEE 802.3, 0xEDB88320) is no longer written anywhere; it stays
 * as the `util.crc32_gbps` throughput probe's reference point.
 *
 * Both run slice-by-8 tables by default. Crc32c sits on the checkpoint
 * critical path (every shard, chunk and read-back is checked with it), so
 * on x86-64 it dispatches once at runtime: a CPU with SSE4.2 runs its
 * 8-byte `crc32` instruction, any other CPU keeps slice-by-8. The two
 * paths are bit-identical, so values recorded by one verify on the other.
 */

#include <cstddef>
#include <cstdint>

namespace moc {

/** Computes the CRC-32 (IEEE) of @p data[0..len). */
std::uint32_t Crc32(const void* data, std::size_t len);

/** Incremental form: feed @p crc from a previous call (start with 0). */
std::uint32_t Crc32Update(std::uint32_t crc, const void* data, std::size_t len);

/** Computes the CRC-32C (Castagnoli) of @p data[0..len). */
std::uint32_t Crc32c(const void* data, std::size_t len);

/** Incremental CRC-32C: feed @p crc from a previous call (start with 0). */
std::uint32_t Crc32cUpdate(std::uint32_t crc, const void* data,
                           std::size_t len);

}  // namespace moc

#endif  // MOC_UTIL_CRC32_H_

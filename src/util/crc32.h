#ifndef MOC_UTIL_CRC32_H_
#define MOC_UTIL_CRC32_H_

/**
 * @file
 * CRC-32 in two polynomials.
 *
 * Crc32 (IEEE 802.3, 0xEDB88320) is the wire-format checksum: tensor
 * blobs and FileStore files carry it as a trailer next to the bytes it
 * covers, so bit rot in transit or at rest is detected on parse.
 *
 * Crc32c (Castagnoli, 0x82F63B78) is the *verification* checksum: the
 * value a manifest records for a shard and later compares against
 * re-read bytes. It MUST be a different polynomial than the trailers
 * embedded inside the blob. CRC is linear over GF(2), and running a CRC
 * across `message || crc(message)` drives the register into a constant
 * state independent of the message — so an outer IEEE CRC over a blob
 * whose sections each end with their own IEEE trailer never sees the
 * payload at all. Two same-shaped blobs from different training
 * iterations then collide, and a lost write that leaves stale
 * same-shaped bytes in place passes verification. A second polynomial
 * breaks the cancellation: the embedded trailer is no longer the outer
 * register's own image of the section.
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

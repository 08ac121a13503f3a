#ifndef MOC_UTIL_CRC32_INTERNAL_H_
#define MOC_UTIL_CRC32_INTERNAL_H_

/**
 * @file
 * CRC-32C implementations behind Crc32cUpdate's runtime dispatch, exposed
 * so tests can check the portable fallback on a machine whose dispatch
 * picks the hardware path. Not part of the library's interface.
 */

#include <cstddef>
#include <cstdint>

namespace moc::crc32_internal {

/** Portable slice-by-8 CRC-32C; same contract as Crc32cUpdate. */
std::uint32_t Crc32cUpdateSliceBy8(std::uint32_t crc, const void* data,
                                   std::size_t len);

/** True when Crc32cUpdate runs on the CPU's crc32 instruction. */
bool Crc32cUsesHardware();

}  // namespace moc::crc32_internal

#endif  // MOC_UTIL_CRC32_INTERNAL_H_

#ifndef MOC_TENSOR_SERIALIZE_H_
#define MOC_TENSOR_SERIALIZE_H_

/**
 * @file
 * Tensor (de)serialization to byte blobs, the wire format used by the
 * checkpoint engine.
 *
 * Layout (little-endian host order): [u32 magic "MOT2"][u32 rank]
 * [u64 dim...][f32 data...]. The encoding carries no checksum of its own:
 * every path that reads one back first checks a CRC-32C over the whole
 * blob it sits in (the FileStore trailer, the manifest record, the
 * memory-replica record; see docs/FAULT_MODEL.md). The previous format
 * ("MOCT") ended in an IEEE CRC-32 trailer; its magic is rejected.
 *
 * Writers pack into a caller-sized buffer (SerializedTensorSize, then
 * SerializeTensorInto) and readers parse from a (pointer, size) span, so
 * neither side copies through a temporary. The parser bounds every
 * length field by the bytes that remain before it allocates anything.
 */

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace moc {

/** Size in bytes that SerializeTensor would produce for @p t. */
std::size_t SerializedTensorSize(const Tensor& t);

/**
 * Writes the encoding of @p t to out[0..SerializedTensorSize(t)) and
 * returns the first byte past it.
 */
std::uint8_t* SerializeTensorInto(const Tensor& t, std::uint8_t* out);

/** Serializes @p t into a self-describing blob. */
std::vector<std::uint8_t> SerializeTensor(const Tensor& t);

/**
 * Parses the one encoding that occupies data[0..size).
 * @throws std::runtime_error on truncation, trailing bytes, bad magic, or
 *         a rank or shape the remaining bytes cannot hold.
 */
Tensor DeserializeTensor(const std::uint8_t* data, std::size_t size);

/** DeserializeTensor over a whole blob. */
Tensor DeserializeTensor(const std::vector<std::uint8_t>& blob);

/**
 * Parses the encoding in data[0..size) into @p dst, whose shape must equal
 * the encoded one; @p dst is untouched unless the parse succeeds.
 * @throws std::runtime_error as DeserializeTensor;
 *         std::invalid_argument when the shapes differ.
 */
void DeserializeTensorInto(const std::uint8_t* data, std::size_t size,
                           Tensor& dst);

}  // namespace moc

#endif  // MOC_TENSOR_SERIALIZE_H_

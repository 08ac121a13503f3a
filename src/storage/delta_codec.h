#ifndef MOC_STORAGE_DELTA_CODEC_H_
#define MOC_STORAGE_DELTA_CODEC_H_

/**
 * @file
 * Changed-chunk delta encoding for per-expert checkpoint blobs.
 *
 * Content-hash dedup (PR 4) only skips *unchanged* experts; a hot expert
 * that changed 1% of its weights still re-persisted 100% of its bytes.
 * Delta encoding closes that gap: the blob is cut into fixed-size chunks,
 * each chunk's identity (CRC-32C + xxHash64, see util/hash.h for why one
 * 32-bit hash is not an identity) is compared against the previous sealed
 * generation's blob, and only the changed chunks are persisted — a bitmap
 * plus their payloads, stored under `<key>@<iter>.delta`.
 *
 * A delta record names the iteration it applies on top of (`base`), so
 * restore reconstructs the logical blob by walking the chain down to a full
 * write and applying records upward. Chains are bounded by the persist
 * pipeline (`max_delta_chain`): a forced full write caps both restore cost
 * and the blast radius of a damaged base — `moc_cli fsck` verifies every
 * link and a generation whose chain is broken is not a restart target.
 *
 * Record wire format (all little-endian):
 *
 *   "MOCD" | u32 version=1 | u64 logical_bytes | u64 base_iteration |
 *   u32 chunk_bytes | u32 num_chunks | u32 changed_count |
 *   bitmap[ceil(num_chunks/8)] | changed chunk payloads (ascending index;
 *   the last chunk of the blob may be short)
 */

#include <cstdint>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace moc {

/** Content identity of one chunk: two structurally unrelated hashes. */
struct ChunkId {
    std::uint32_t crc = 0;
    std::uint64_t hash = 0;

    bool operator==(const ChunkId& o) const {
        return crc == o.crc && hash == o.hash;
    }
    bool operator!=(const ChunkId& o) const { return !(*this == o); }
};

/** Per-chunk identities of @p blob cut into @p chunk_bytes chunks. */
std::vector<ChunkId> HashChunks(const Blob& blob, std::size_t chunk_bytes);

/** Parsed header + layout of one delta record. */
struct DeltaRecord {
    Bytes logical_bytes = 0;
    /** Iteration of the version this record applies on top of. */
    std::size_t base_iteration = 0;
    std::size_t chunk_bytes = 0;
    std::size_t num_chunks = 0;
    /** Changed chunk indices, ascending. */
    std::vector<std::uint32_t> changed;
    /** Offset of the first chunk payload inside the record. */
    std::size_t payload_offset = 0;
};

/**
 * Encodes the chunks of @p blob whose index appears in @p changed
 * (ascending, deduplicated) as a delta record against @p base_iteration.
 * @p blob must cut into exactly the same chunk grid as the base — the
 * pipeline forces a full write when sizes differ.
 */
Blob EncodeDelta(const Blob& blob, const std::vector<std::uint32_t>& changed,
                 std::size_t chunk_bytes, std::size_t base_iteration);

/**
 * Parses and validates a delta record's header, bitmap, and payload length.
 * @throws std::invalid_argument on anything malformed (bad magic, version,
 * geometry that doesn't add up, truncated payload).
 */
DeltaRecord ParseDelta(const Blob& record);

/**
 * Reconstructs the logical blob: @p base overwritten with the changed
 * chunks of @p record. @throws std::invalid_argument when @p base does not
 * match the record's geometry (wrong size — the chain is inconsistent).
 */
Blob ApplyDelta(const Blob& record, const Blob& base);

/**
 * Store key of one delta record: "<key>@<iteration>.delta", beside the full
 * blobs' VersionedShardKey namespace.
 */
std::string DeltaShardKey(const std::string& key, std::size_t iteration);

}  // namespace moc

#endif  // MOC_STORAGE_DELTA_CODEC_H_

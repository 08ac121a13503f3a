#ifndef MOC_CORE_CLUSTER_RECOVERY_H_
#define MOC_CORE_CLUSTER_RECOVERY_H_

/**
 * @file
 * Restart-target selection for cluster checkpoints written by the per-shard
 * commit protocol (src/ckpt/persist_pipeline.h).
 *
 * A cluster generation is offered as a restart target only when the
 * manifest says it is *sealed* — every rank's every shard landed and
 * CRC-verified. A generation torn by a persist failure stays unsealed and
 * is skipped entirely; recovery falls back to the previous sealed one
 * rather than mixing fresh and stale shards (the torn-checkpoint failure
 * mode of latest-wins keying).
 *
 * Within the chosen generation each key resolves through its verified
 * fallback chain; dedup-by-reference versions resolve to the physical blob
 * of the iteration that actually holds the bytes
 * (PersistVersion::PhysicalIteration), and delta versions reconstruct by
 * walking the record chain down to a full write and applying the changed
 * chunks back up (storage/delta_codec.h). A chain broken anywhere — a
 * damaged or missing base — fails the logical CRC check and the key falls
 * back to an older verified version.
 */

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/moc_system.h"
#include "core/placement.h"
#include "storage/manifest.h"
#include "storage/object_store.h"

namespace moc {

/** One shard the restore plan will read. */
struct ShardRestorePlan {
    /** Logical key the generation was written under ("rank0/expert/3/w"). */
    std::string key;
    /**
     * Logical key the restored bytes belong to *now* — key rewritten
     * through the rank remap when the restore targets a different
     * membership than the one that sealed the generation; equal to key
     * otherwise.
     */
    std::string target_key;
    /** Iteration of the version chosen for this key. */
    std::size_t iteration = 0;
    /** Store key of the blob backing it (dedup refs resolved). */
    std::string physical_key;
    std::uint32_t crc = 0;
    Bytes bytes = 0;
};

/** The restore plan for one sealed cluster generation. */
struct ClusterRestorePlan {
    /** The sealed generation selected as restart target. */
    std::size_t generation = 0;
    std::vector<ShardRestorePlan> shards;
    /** Keys with no usable persist version at or below the generation. */
    std::vector<std::string> missing;
    /** Keys whose chosen version is older than the generation. */
    std::vector<DegradedKey> degraded;
};

/** What ExecuteClusterRestore brought back. */
struct ClusterRestoreResult {
    std::size_t generation = 0;
    std::size_t shards_restored = 0;
    Bytes bytes_read = 0;
    /** Restored payloads by logical key. */
    std::map<std::string, Blob> blobs;
    /** Keys restored from an older version than the plan chose. */
    std::vector<DegradedKey> degraded;
    /** Keys whose every candidate blob failed CRC verification. */
    std::vector<std::string> damaged;
};

/**
 * Plans a restore from the newest sealed-and-eligible generation at or
 * below @p max_iteration (no bound when nullopt). Unsealed generations are
 * never considered, whatever shards they managed to write. Returns nullopt
 * when no eligible generation exists.
 *
 * @param remap when non-null, every shard's target_key is the remapped
 *        key — this is what makes recovery world-size independent: a
 *        generation sealed by N ranks restores onto M != N survivors, with
 *        dead ranks' shards retargeted onto the members that absorb them
 *        (BuildRankRemap / AddExpertMoves). The *source* keys and fallback
 *        chains are untouched: the bytes are read exactly as the dead world
 *        wrote them. Should two source keys remap onto one target, the
 *        first restored wins and the rest are reported damaged-by-collision
 *        in the plan's missing list.
 */
std::optional<ClusterRestorePlan> PlanClusterRestore(
    const CheckpointManifest& manifest,
    std::optional<std::size_t> max_iteration = std::nullopt,
    const RankRemap* remap = nullptr);

/**
 * Executes @p plan against @p store: reads every planned shard's physical
 * blob and CRC-verifies it against the manifest record; a damaged blob
 * falls back down the key's verified chain (older versions, dedup refs
 * resolved) before the key is declared damaged.
 *
 * Shards restore concurrently on min(shards, hardware_concurrency())
 * threads, each under the restore generation's trace context. The result
 * is the one a serial walk in plan order produces, and an exception from
 * any shard's read is rethrown here for the first failing shard in plan
 * order.
 */
ClusterRestoreResult ExecuteClusterRestore(const CheckpointManifest& manifest,
                                           const ObjectStore& store,
                                           const ClusterRestorePlan& plan);

}  // namespace moc

#endif  // MOC_CORE_CLUSTER_RECOVERY_H_

#ifndef MOC_STORAGE_MANIFEST_H_
#define MOC_STORAGE_MANIFEST_H_

/**
 * @file
 * The checkpoint manifest: for every checkpointing unit key, the saved
 * versions at each level of the hierarchy (in-memory snapshot vs persistent
 * storage), with their iterations and owning nodes.
 *
 * The memory level keeps one version per holding node — an expert's
 * snapshot is replicated on the owner rank of every EP group — so that node
 * failures invalidate exactly the replicas that died. This metadata makes
 * PEC recovery well-defined: on a fault, the recovery planner consults the
 * manifest to find, per key, the newest version still reachable
 * (Section 5.1 "Recovery").
 *
 * The persist level additionally keeps a bounded *history* of versions per
 * key, each carrying the CRC of the bytes that were written and whether the
 * write was verified (read back and CRC-checked). Versions group into
 * checkpoint *generations* — all shards written at one checkpoint
 * iteration — and a generation becomes an eligible restart target only
 * once it is sealed (MarkCheckpointComplete) and every shard recorded in it
 * verified. Recovery walks eligible generations newest-first and, per key,
 * a verified-version fallback chain, so a corrupt shard degrades the
 * restore instead of killing it (docs/FAULT_MODEL.md).
 *
 * The persist history serializes to JSON (`moc-manifest/1`) so an on-disk
 * checkpoint directory carries its own integrity record for `moc_cli fsck`
 * and cold starts.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/topology.h"
#include "util/bytes.h"

namespace moc {

/** Store key the manifest JSON is persisted under, next to the shards. */
inline constexpr const char* kManifestKey = "meta/manifest";

/** The two levels of the checkpoint hierarchy. */
enum class StoreLevel { kMemory, kPersist };

/** One saved version of one key. */
struct KeyVersion {
    /** Training iteration whose state this version captures. */
    std::size_t iteration = 0;
    /** Node whose memory holds it (memory level; 0 for persist). */
    NodeId node = 0;
    Bytes bytes = 0;
    /** CRC-32C of the saved blob (0 when the caller recorded none). */
    std::uint32_t crc = 0;
};

/** One persisted version of one key, with its integrity record. */
struct PersistVersion {
    std::size_t iteration = 0;
    Bytes bytes = 0;
    /** CRC-32C of the serialized shard at write time. */
    std::uint32_t crc = 0;
    /** Write was read back and CRC-matched (or predates verification). */
    bool verified = true;
    /** A later read found the stored bytes damaged beyond repair. */
    bool corrupt = false;
    /**
     * Dedup-by-reference: the shard's content was identical (same size,
     * CRC-32C, and xxHash64) to an already-persisted version, so no bytes
     * were written for this version — the physical blob lives at the
     * referenced iteration instead (docs/FAULT_MODEL.md, "cluster commit
     * protocol").
     */
    std::optional<std::size_t> ref;

    /**
     * Delta encoding: only the chunks that changed since the version at
     * this iteration were persisted, as a delta record under
     * DeltaShardKey(key, iteration). `bytes`/`crc` above still describe the
     * *logical* (reconstructed) blob; `delta_bytes`/`delta_crc` describe
     * the physical record, so both restore and fsck can verify each
     * representation. Mutually exclusive with `ref`.
     */
    std::optional<std::size_t> delta_base;
    Bytes delta_bytes = 0;
    std::uint32_t delta_crc = 0;

    bool is_delta() const { return delta_base.has_value(); }

    /** Iteration whose physical blob backs this version. */
    std::size_t PhysicalIteration() const { return ref.value_or(iteration); }
};

/**
 * Store key of one versioned shard write: "<key>@<iteration>". The cluster
 * persist pipeline writes every shard under its versioned key, so no
 * generation is ever damaged by a latest-wins overwrite from a newer,
 * possibly failing, checkpoint event.
 */
std::string VersionedShardKey(const std::string& key, std::size_t iteration);

/** Summary of one checkpoint generation, for fsck and reports. */
struct GenerationInfo {
    std::size_t iteration = 0;
    /** Shards (persist versions) recorded at this iteration. */
    std::size_t shards = 0;
    std::size_t verified_shards = 0;
    std::size_t corrupt_shards = 0;
    /** MarkCheckpointComplete has sealed this generation. */
    bool sealed = false;
    /** Recovery found the generation unusable as a restart target. */
    bool marked_corrupt = false;
    /**
     * The coordinator abandoned this generation deliberately — a participant
     * died mid-barrier and elastic membership replanned around it. Never a
     * restart target, but also not *torn*: fsck reports it as an
     * acknowledged casualty instead of damage.
     */
    bool aborted = false;
    /** Sealed, not marked corrupt, and every shard verified and intact. */
    bool eligible = false;
};

/**
 * Thread-safe manifest over both checkpoint levels.
 */
class CheckpointManifest {
  public:
    /**
     * Records that @p key was saved at @p level capturing @p iteration,
     * as bytes whose CRC-32C is @p crc. Persist-level saves through this
     * legacy entry point record a verified version; prefer
     * RecordPersistVersion for checked recovery.
     */
    void RecordSave(StoreLevel level, const std::string& key, std::size_t iteration,
                    NodeId node, Bytes bytes, std::uint32_t crc = 0);

    /**
     * Records a persist-level version with its integrity metadata.
     * Same-iteration re-records replace; older iterations panic
     * (checkpoints are monotonic). @p ref records dedup-by-reference: the
     * version's bytes physically live at that older iteration.
     */
    void RecordPersistVersion(const std::string& key, std::size_t iteration,
                              Bytes bytes, std::uint32_t crc, bool verified,
                              std::optional<std::size_t> ref = std::nullopt);

    /**
     * Records a delta-encoded persist version: logical content
     * (@p bytes, @p crc) materialized by applying the record at
     * DeltaShardKey(key, iteration) — physical identity @p delta_bytes /
     * @p delta_crc — on top of the version at @p delta_base.
     */
    void RecordPersistDelta(const std::string& key, std::size_t iteration,
                            Bytes bytes, std::uint32_t crc, bool verified,
                            std::size_t delta_base, Bytes delta_bytes,
                            std::uint32_t delta_crc);

    /** The recorded version of @p key at exactly @p iteration, if any. */
    std::optional<PersistVersion> FindPersistVersion(
        const std::string& key, std::size_t iteration) const;

    /**
     * Freshest reachable version of @p key at @p level, if any. At the
     * memory level this is the newest among surviving node replicas; at
     * the persist level, the newest version not marked corrupt.
     */
    std::optional<KeyVersion> Latest(StoreLevel level, const std::string& key) const;

    /**
     * Freshest memory-level version of @p key held by one of @p nodes — the
     * non-destructive form of DropNodeMemory for world-size-independent
     * recovery: planning a restore onto a survivor subset without editing
     * the manifest.
     */
    std::optional<KeyVersion> LatestMemoryAmong(
        const std::string& key, const std::vector<NodeId>& nodes) const;

    /**
     * Usable persist versions of @p key with iteration <= @p max_iteration,
     * newest first: verified, not marked corrupt. Empty when nothing
     * survives — the key is only recoverable from memory or initial state.
     */
    std::vector<PersistVersion> PersistFallbackChain(
        const std::string& key, std::size_t max_iteration) const;

    /** Marks one persist version damaged; it leaves every fallback chain. */
    void MarkPersistCorrupt(const std::string& key, std::size_t iteration);

    /** Marks a whole generation unusable as a restart target. */
    void MarkGenerationCorrupt(std::size_t iteration);

    /**
     * Marks generation @p iteration deliberately abandoned (a membership
     * change tore its barrier). It will never seal and never be eligible;
     * fsck classifies it separately from torn damage.
     */
    void MarkGenerationAborted(std::size_t iteration);

    /** Invalidates all memory-level versions held by @p node (node crash). */
    void DropNodeMemory(NodeId node);

    /** All keys present at @p level, sorted. */
    std::vector<std::string> KeysAt(StoreLevel level) const;

    /**
     * Marks checkpoint @p iteration complete at @p level. At the persist
     * level this also seals generation @p iteration.
     */
    void MarkCheckpointComplete(StoreLevel level, std::size_t iteration);

    /** Latest fully completed checkpoint iteration at @p level (or nullopt). */
    std::optional<std::size_t> LastCompleteIteration(StoreLevel level) const;

    /** Every known generation, ascending by iteration. */
    std::vector<GenerationInfo> Generations() const;

    /** Iterations of eligible restart targets, newest first. */
    std::vector<std::size_t> EligibleGenerations() const;

    /** Newest eligible restart target, if any. */
    std::optional<std::size_t> LatestEligibleGeneration() const;

    /**
     * Drops persist versions no eligible generation <= the cutoff still
     * needs, keeping the newest @p keep_generations eligible generations
     * (plus everything newer). A version below the cutoff survives while it
     * is the newest usable version of its key at or below the cutoff (an
     * unselected expert's shard backs later generations too). Returns the
     * (key, iteration) pairs pruned so the caller can erase their blobs.
     */
    std::vector<std::pair<std::string, std::size_t>> PrunePersistGenerations(
        std::size_t keep_generations);

    /** Persist-level state as a `moc-manifest/1` JSON document. */
    std::string ToJson() const;

    /**
     * Replaces the persist level (histories, generations, completion mark)
     * with the contents of a ToJson document. Memory-level state is not
     * serialized and is left untouched.
     * @throws std::invalid_argument on malformed input.
     */
    void LoadFromJson(const std::string& text);

  private:
    struct GenerationState {
        bool sealed = false;
        bool corrupt = false;
        bool aborted = false;
    };

    /** Caller holds mu_. */
    GenerationInfo GenerationInfoLocked(std::size_t iteration,
                                        const GenerationState& state) const;

    mutable std::mutex mu_;
    /** memory_[key][node] = that node's replica. */
    std::map<std::string, std::map<NodeId, KeyVersion>> memory_;
    /** persist_[key] = version history, ascending by iteration. */
    std::map<std::string, std::vector<PersistVersion>> persist_;
    std::map<std::size_t, GenerationState> generations_;
    std::optional<std::size_t> memory_complete_;
    std::optional<std::size_t> persist_complete_;
};

}  // namespace moc

#endif  // MOC_STORAGE_MANIFEST_H_

#ifndef MOC_CKPT_PERSIST_PIPELINE_H_
#define MOC_CKPT_PERSIST_PIPELINE_H_

/**
 * @file
 * The persist engine: a bounded pool of persist workers draining per-unit
 * keyed writes into the persistent store, with the commit protocol that
 * makes a checkpoint atomic at the generation level (docs/FAULT_MODEL.md,
 * "Checkpoint generations" and "Cluster commit protocol"). It is the only
 * code that writes generation blobs, records persist versions, seals,
 * prunes and writes the manifest, for both the single-process training
 * path (MocCheckpointSystem) and the cluster engine:
 *
 *  - every unit is written under its *versioned* key (the options'
 *    version_key: "<rank>/<unit>@<iteration>" on the cluster path,
 *    "gen/<iteration>/<unit>" on the training path), never latest-wins, so
 *    a failing event cannot damage an older generation;
 *  - each write is one ResilientStore::Put: retried, fsynced by the
 *    backend, read back and CRC-32C verified. A unit that fails is still
 *    recorded, as unverified, so fsck and the fallback chains skip it;
 *  - a shard whose content identity — (byte size, CRC-32C, xxHash64), two
 *    structurally unrelated hashes so a 32-bit collision cannot silently
 *    alias two different blobs — matches the last *sealed* generation's
 *    entry is recorded by reference instead of re-persisted — under PEC
 *    with K << N most expert shards are unchanged between events, so
 *    persisted bytes drop sharply (dedup);
 *  - a *changed* shard is chunk-diffed against the last sealed generation's
 *    blob (storage/delta_codec.h): when only some chunks changed, a delta
 *    record (bitmap + changed chunks) is persisted instead of the full blob
 *    — a hot expert that changed 1% of its weights persists ~1% of its
 *    bytes. Chains are bounded by max_delta_chain; at the bound (or on a
 *    size change, or when every chunk changed) a full write is forced;
 *  - the generation is sealed — and only then becomes an eligible restart
 *    target — when every unit landed and verified; any failure leaves it
 *    unsealed and recovery falls back to the previous sealed generation;
 *  - after the seal, versions no kept generation needs are pruned
 *    (keep_generations), the manifest is written, and only then are the
 *    pruned blobs erased: a crash in between leaves orphan blobs, never a
 *    manifest naming erased ones.
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "obs/watchdog.h"
#include "storage/delta_codec.h"
#include "storage/manifest.h"
#include "storage/resilient_store.h"
#include "util/clock.h"

namespace moc {

/** Simulated seconds one persist write of N bytes takes (nullable). */
using WriteCostFn = std::function<Seconds(Bytes)>;

/** Store key of unit @p key's full version at @p iteration. */
using VersionKeyFn =
    std::function<std::string(const std::string& key, std::size_t iteration)>;

/** Tuning knobs of the pipeline. */
struct PersistPipelineOptions {
    /** Persist workers draining the shard queue. */
    std::size_t workers = 4;
    /** Bounded queue depth; Submit blocks when full (backpressure). */
    std::size_t queue_capacity = 16;
    /** Skip re-persisting shards unchanged since the last sealed gen. */
    bool dedup = true;
    /** Delta-encode changed shards against the last sealed generation. */
    bool delta = false;
    /** Chunk granularity of the delta diff. */
    std::size_t delta_chunk_bytes = 64 * 1024;
    /**
     * Deltas allowed on top of one full write before the next changed
     * shard is forced full again. Bounds restore cost and the number of
     * generations a damaged base can take down.
     */
    std::size_t max_delta_chain = 8;
    /** Wall-time scale applied to the write-cost sleeps. */
    double time_scale = 1.0;
    /** Stall monitor for in-flight ops (optional; must outlive the
        pipeline). Armed only when a budget below is positive. */
    obs::StallWatchdog* watchdog = nullptr;
    /** Deadline budget for one shard write+verify, wall seconds (0 = off). */
    double shard_budget_s = 0.0;
    /** Deadline budget for the seal barrier's drain wait (0 = off). */
    double seal_budget_s = 0.0;
    /** Store key of each full version the pipeline writes. */
    VersionKeyFn version_key = VersionedShardKey;
    /**
     * Eligible generations kept by the prune after each seal
     * (CheckpointManifest::PrunePersistGenerations); 0 = never prune.
     * Pruning erases full versions only, so it requires delta off.
     */
    std::size_t keep_generations = 0;
};

/** Per-generation outcome of the commit protocol. */
struct GenerationCommitStats {
    std::size_t iteration = 0;
    /** Shards submitted to this generation. */
    std::size_t shards = 0;
    /** Shards physically written and verified. */
    std::size_t shards_written = 0;
    /** Shards recorded by reference to an older identical blob. */
    std::size_t shards_deduped = 0;
    /** Shards persisted as changed-chunk delta records (subset of
        shards_written). */
    std::size_t shards_delta = 0;
    /** Full writes forced because a chain reached max_delta_chain. */
    std::size_t forced_full = 0;
    /** Shard writes that failed (retries or read-back verify exhausted). */
    std::size_t failures = 0;
    Bytes bytes_written = 0;
    /** Bytes dedup avoided re-persisting. */
    Bytes bytes_deduped = 0;
    /** Logical bytes delta encoding avoided re-persisting (logical size
        minus delta record size, summed over delta shards). */
    Bytes bytes_delta_saved = 0;
    /** All shards landed and verified; the generation is a restart target. */
    bool sealed = false;
};

/**
 * Writes @p manifest's JSON to kManifestKey through the verified Put: the
 * one manifest writer of every checkpoint path. Best-effort: a failure
 * journals a `storage_fault` and warns, since the in-memory manifest stays
 * authoritative for the process that holds it.
 */
void WriteManifest(ResilientStore& store, const CheckpointManifest& manifest);

/**
 * Completion handle for one batch of shard submissions (one rank's slice of
 * a checkpoint event). The submitter waits on it to learn when its shards
 * have drained, without blocking on other ranks' shards.
 */
class ShardBatch {
  public:
    /** Blocks until every shard submitted with this batch completed. */
    void Wait();

    /** Batch outcome; valid after Wait(). */
    std::size_t written() const;
    std::size_t deduped() const;
    std::size_t failed() const;
    Bytes bytes_written() const;

  private:
    friend class PersistPipeline;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    std::size_t written_ = 0;
    std::size_t deduped_ = 0;
    std::size_t failed_ = 0;
    Bytes bytes_written_ = 0;
};

/**
 * Bounded persist worker pool implementing the commit protocol.
 * Thread-safe: rank threads submit concurrently; workers drain concurrently.
 */
class PersistPipeline {
  public:
    /**
     * @param store verified destination of every blob and the manifest
     *        (shared by all ranks).
     * @param manifest generation/version registry the protocol commits to.
     * @param write_cost simulated write duration, or nullptr for none.
     */
    PersistPipeline(ResilientStore& store, CheckpointManifest& manifest,
                    WriteCostFn write_cost,
                    const PersistPipelineOptions& options = {});

    /** Drains the queue and joins the workers. */
    ~PersistPipeline();

    PersistPipeline(const PersistPipeline&) = delete;
    PersistPipeline& operator=(const PersistPipeline&) = delete;

    /**
     * Opens generation @p iteration for shard submissions. Generations are
     * monotonic and non-overlapping: the previous one must be finished.
     */
    void BeginGeneration(std::size_t iteration);

    /** Creates a completion handle for one submitter's shard batch. */
    std::shared_ptr<ShardBatch> MakeBatch();

    /**
     * Enqueues one keyed shard write for the open generation. Blocks while
     * the queue is at capacity. @p batch (optional) is signalled when this
     * shard completes. @p ctx (optional) is the checkpoint-event identity
     * the worker installs while executing the job, so persist/verify spans
     * land in the submitting rank's lane of the flight recorder. @p crc
     * (optional) is the blob's CRC-32C when the caller already computed it;
     * the worker then does not hash the blob again.
     */
    void Submit(std::string key, Blob blob, std::size_t iteration,
                std::shared_ptr<ShardBatch> batch = nullptr,
                const obs::TraceContext& ctx = {},
                std::optional<std::uint32_t> crc = std::nullopt);

    /**
     * Waits until every submitted shard of the open generation drained,
     * then runs the seal rule: all shards written and verified -> the
     * manifest generation is sealed (MarkCheckpointComplete) and becomes
     * the dedup baseline for the next event; otherwise it stays unsealed
     * and is never offered as a restart target. Emits a `cluster_seal`
     * journal event either way. Then prunes (keep_generations), writes the
     * manifest, and erases the pruned blobs on the workers.
     */
    GenerationCommitStats FinishGeneration();

    const PersistPipelineOptions& options() const { return options_; }

  private:
    struct Job {
        std::string key;
        Blob blob;
        std::size_t iteration = 0;
        /** CRC-32C of blob, when the submitter already computed it. */
        std::optional<std::uint32_t> crc;
        std::shared_ptr<ShardBatch> batch;
        obs::TraceContext ctx;
        /** Erase the store key `key` (a pruned version) instead. */
        bool erase = false;
    };

    /** Content identity of a sealed shard, for dedup and delta diffing. */
    struct SealedEntry {
        std::uint32_t crc = 0;
        /** xxHash64, a second, structurally unrelated hash: two same-size
            blobs that collide on CRC-32C must still not dedup. */
        std::uint64_t hash = 0;
        Bytes bytes = 0;
        /** Iteration whose physical blob holds the content. */
        std::size_t physical_iteration = 0;
        /** Deltas already stacked on the last full write of this key. */
        std::size_t chain_length = 0;
        /** Per-chunk identities of the sealed blob (delta mode only);
            shared so staging a dedup ref doesn't copy the vector. */
        std::shared_ptr<const std::vector<ChunkId>> chunks;
    };

    /** Drains the open generation and runs the seal rule. */
    GenerationCommitStats Seal();

    void WorkerLoop();
    void Execute(Job job);
    void CompleteJob(const Job& job, bool written, bool deduped, bool failed,
                     Bytes bytes);

    ResilientStore& store_;
    CheckpointManifest& manifest_;
    WriteCostFn write_cost_;
    PersistPipelineOptions options_;
    WallClock clock_;

    std::mutex mu_;
    std::condition_variable queue_cv_;   ///< waiting for space or work
    std::condition_variable drain_cv_;   ///< waiting for in-flight == 0
    std::deque<Job> queue_;
    std::size_t in_flight_ = 0;
    bool stop_ = false;

    /** Open generation state (guarded by mu_). */
    std::optional<std::size_t> open_generation_;
    GenerationCommitStats gen_stats_;
    /** Records staged for the open generation, folded into the dedup
        baseline on seal. */
    std::vector<std::pair<std::string, SealedEntry>> staged_records_;

    /** key -> content identity in the last sealed generation. */
    std::map<std::string, SealedEntry> sealed_baseline_;

    std::vector<std::thread> workers_;
};

}  // namespace moc

#endif  // MOC_CKPT_PERSIST_PIPELINE_H_

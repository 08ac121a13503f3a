#ifndef MOC_CKPT_CLUSTER_ENGINE_H_
#define MOC_CKPT_CLUSTER_ENGINE_H_

/**
 * @file
 * Cluster-wide checkpoint execution: runs a ShardPlan through one
 * asynchronous agent per rank, concurrently, and measures what the
 * analytical model only predicts — the makespan set by the bottleneck rank
 * (Section 6.2.1's "the duration of the blocking checkpointing process is
 * primarily determined by the bottleneck rank").
 *
 * The persist path is the one persist engine, PersistPipeline
 * (docs/FAULT_MODEL.md): every ShardItem is written under its own versioned
 * key "rank<r>/<item.key>@<iteration>" through a ResilientStore over the
 * engine's store (retried, read back and CRC-verified, as the
 * multi-process ranks write), and shards unchanged since the last sealed
 * generation are deduped; the generation is sealed in the manifest — and
 * only then offered as a restart target — when every rank's every shard
 * landed and verified. The pipeline writes the manifest JSON to
 * kManifestKey after every event (best-effort) so offline tools
 * (`moc_cli fsck`) can audit the directory. The cluster path keeps every
 * generation (no retention count). bench_persist_pipeline A/Bs dedup
 * against full per-shard writes.
 */

#include <functional>
#include <memory>
#include <vector>

#include "ckpt/async_agent.h"
#include "ckpt/persist_pipeline.h"
#include "ckpt/rank_coordinator.h"
#include "core/sharding.h"
#include "net/inproc_transport.h"
#include "storage/manifest.h"
#include "storage/persistent_store.h"
#include "storage/resilient_store.h"
#include "util/clock.h"

namespace moc {

/** Produces the serialized payload for one shard item. */
using BlobProvider = std::function<Blob(const ShardItem& item)>;

/**
 * Deterministic synthetic payload for one shard item: size-preserving
 * (1 planned MiB -> 1 synthetic KiB) and filled from a PRNG seeded by the
 * item's key and @p salt, so two items never share content by accident and
 * a re-serialization of the same (key, salt) is bit-identical — the
 * property content-hash dedup keys on.
 */
Blob SyntheticShardBytes(const ShardItem& item, std::uint64_t salt = 0);

/**
 * A provider that fabricates each item's blob via SyntheticShardBytes.
 * Same @p salt -> identical bytes per key (dedup hits); bump the salt for
 * keys whose state "trained" between events.
 */
BlobProvider SyntheticBlobProvider(std::uint64_t salt = 0);

/** Persist-path configuration of the engine. */
struct ClusterEngineOptions {
    /** Content-hash dedup against the last sealed generation. */
    bool dedup = true;
    /** Delta-encode changed shards against the last sealed generation
        (ckpt/persist_pipeline.h). */
    bool delta = false;
    /** Chunk granularity of the delta diff. */
    std::size_t delta_chunk_bytes = 64 * 1024;
    /** Deltas allowed on one full write before a full write is forced. */
    std::size_t max_delta_chain = 8;
    /**
     * Stall-watchdog deadline for one shard write+verify, wall seconds.
     * Any positive budget makes the engine own a StallWatchdog and wire it
     * into the persist pipeline; an op over budget journals a `stall`
     * event and bumps obs.stall.* (see obs/watchdog.h). 0 = off.
     */
    double shard_deadline_s = 0.0;
    /** Stall-watchdog deadline for the seal barrier's drain (0 = off). */
    double seal_deadline_s = 0.0;
    /**
     * Deadline for the transport barrier: how long the coordinator waits
     * for every rank's kRankDone before treating the event as incomplete
     * (see ckpt/rank_coordinator.h). In-process ranks only miss it when a
     * rank thread wedges, so the default is generous.
     */
    double barrier_deadline_s = 30.0;
};

/** Measured outcome of one cluster checkpoint (all fields per-call). */
struct ClusterRunStats {
    /** The transport barrier saw every rank's kRankDone in time. */
    bool barrier_complete = false;
    /** Wall time the coordinator spent waiting on the kRankDone barrier. */
    Seconds barrier_wait = 0.0;
    /** Wall time until every rank finished its snapshot phase. */
    Seconds snapshot_makespan = 0.0;
    /** Wall time until every rank's persist drained. */
    Seconds total_makespan = 0.0;
    /** Per-rank GPU->CPU snapshot durations (copy + stall only). */
    std::vector<Seconds> per_rank_snapshot;
    /** Per-rank CPU-side blob serialization durations (provider calls). */
    std::vector<Seconds> per_rank_serialize;
    /** Shards physically persisted by this call. */
    std::size_t keys_persisted = 0;
    /** Physical bytes written by this call. */
    Bytes bytes_persisted = 0;
    /** Shards recorded by dedup reference instead of re-persisted. */
    std::size_t keys_deduped = 0;
    /** Bytes dedup avoided re-persisting. */
    Bytes bytes_deduped = 0;
    /** Shards persisted as changed-chunk delta records. */
    std::size_t keys_delta = 0;
    /** Logical bytes delta encoding avoided re-persisting. */
    Bytes bytes_delta_saved = 0;
    /** Full writes forced because a delta chain hit max_delta_chain. */
    std::size_t forced_full = 0;
    /** Shard writes that failed (StoreError or verify mismatch). */
    std::size_t persist_failures = 0;
    /** The generation this event committed. */
    std::size_t generation = 0;
    /** Commit protocol outcome: every shard landed and verified. */
    bool sealed = false;
};

/**
 * One asynchronous checkpoint agent per rank, executing shard plans.
 */
class ClusterCheckpointEngine {
  public:
    /**
     * @param store shared persistent backend (write cost from store.io()).
     * @param num_ranks agents to spawn.
     * @param cost per-agent transfer-rate model (use a small time_scale:
     *        phase durations sleep for real).
     */
    ClusterCheckpointEngine(PersistentStore& store, std::size_t num_ranks,
                            const AgentCostModel& cost,
                            const ClusterEngineOptions& options = {});

    /**
     * Engine over any ObjectStore (a FileStore, a FaultyStore chain, ...);
     * write cost from cost.persist_bandwidth.
     */
    ClusterCheckpointEngine(ObjectStore& store, std::size_t num_ranks,
                            const AgentCostModel& cost,
                            const ClusterEngineOptions& options = {});

    /**
     * Executes one checkpoint event: every rank serializes its items via
     * @p provider and checkpoints through its own agent. Blocks until all
     * persists drain and the commit protocol ran. All ClusterRunStats
     * fields report this call only (per-call deltas, not agent lifetime
     * totals). Iterations must be strictly increasing across calls.
     */
    ClusterRunStats Execute(const ShardPlan& plan, const BlobProvider& provider,
                            std::size_t iteration);

    std::size_t num_ranks() const { return agents_.size(); }

    /** The generation registry the commit protocol writes to. */
    const CheckpointManifest& manifest() const { return manifest_; }

    const ClusterEngineOptions& options() const { return options_; }

  private:
    void Init(std::size_t num_ranks, const AgentCostModel& cost,
              WriteCostFn write_cost);

    /** The engine's store, through which every shard and manifest write
        is verified. */
    ResilientStore persist_;
    ClusterEngineOptions options_;
    CheckpointManifest manifest_;
    /**
     * Rank coordination fabric: the begin/done barrier of every Execute
     * runs over these InprocTransport endpoints — the same protocol
     * (ckpt/rank_coordinator.h) the multi-process gauntlet speaks over
     * TCP. Declared before agents_ so endpoints outlive rank users.
     */
    net::InprocHub hub_;
    std::unique_ptr<net::InprocTransport> coord_transport_;
    std::vector<std::unique_ptr<net::InprocTransport>> rank_transports_;
    std::unique_ptr<CheckpointCoordinator> coordinator_;
    /** Declared before pipeline_ so it outlives the pipeline, which holds
        a raw pointer to it. */
    std::unique_ptr<obs::StallWatchdog> watchdog_;
    std::unique_ptr<PersistPipeline> pipeline_;
    std::vector<std::unique_ptr<AsyncCheckpointAgent>> agents_;
    std::size_t last_iteration_ = 0;
    bool has_executed_ = false;
};

}  // namespace moc

#endif  // MOC_CKPT_CLUSTER_ENGINE_H_

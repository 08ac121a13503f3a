#include "ckpt/cluster_engine.h"

#include <thread>

#include "obs/trace.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace moc {

Blob
SyntheticShardBytes(const ShardItem& item, std::uint64_t salt) {
    // Fabricate a payload of the planned size (scaled: 1 planned MiB ->
    // 1 synthetic KiB keeps memory small while preserving ratios). Filled
    // from a per-(key, salt) seeded PRNG: a constant fill would let dedup
    // succeed across *different* keys and let bit-flip fault tests pass
    // vacuously on same-byte collisions.
    const std::size_t size =
        std::max<std::size_t>(1, static_cast<std::size_t>(item.bytes / 1024));
    Rng rng(Fnv1a64(item.key.data(), item.key.size()) ^ salt);
    Blob blob(size);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = rng.Next();
        for (std::size_t b = 0; b < 8; ++b) {
            blob[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
        }
    }
    if (i < size) {
        std::uint64_t word = rng.Next();
        for (; i < size; ++i) {
            blob[i] = static_cast<std::uint8_t>(word);
            word >>= 8;
        }
    }
    return blob;
}

BlobProvider
SyntheticBlobProvider(std::uint64_t salt) {
    return [salt](const ShardItem& item) { return SyntheticShardBytes(item, salt); };
}

ClusterCheckpointEngine::ClusterCheckpointEngine(PersistentStore& store,
                                                 std::size_t num_ranks,
                                                 const AgentCostModel& cost,
                                                 const ClusterEngineOptions& options)
    : persist_(store), options_(options) {
    Init(num_ranks, cost, [&store](Bytes bytes) { return store.WriteTime(bytes); });
}

ClusterCheckpointEngine::ClusterCheckpointEngine(ObjectStore& store,
                                                 std::size_t num_ranks,
                                                 const AgentCostModel& cost,
                                                 const ClusterEngineOptions& options)
    : persist_(store), options_(options) {
    Init(num_ranks, cost, [bandwidth = cost.persist_bandwidth](Bytes bytes) {
        return static_cast<double>(bytes) / bandwidth;
    });
}

void
ClusterCheckpointEngine::Init(std::size_t num_ranks, const AgentCostModel& cost,
                              WriteCostFn write_cost) {
    MOC_CHECK_ARG(num_ranks >= 1, "need at least one rank");
    PersistPipelineOptions pipe;
    pipe.workers = num_ranks;
    pipe.queue_capacity = 4 * pipe.workers;
    pipe.dedup = options_.dedup;
    pipe.delta = options_.delta;
    pipe.delta_chunk_bytes = options_.delta_chunk_bytes;
    pipe.max_delta_chain = options_.max_delta_chain;
    pipe.time_scale = cost.time_scale;
    if (options_.shard_deadline_s > 0.0 || options_.seal_deadline_s > 0.0) {
        watchdog_ = std::make_unique<obs::StallWatchdog>();
        pipe.watchdog = watchdog_.get();
        pipe.shard_budget_s = options_.shard_deadline_s;
        pipe.seal_budget_s = options_.seal_deadline_s;
    }
    pipeline_ = std::make_unique<PersistPipeline>(persist_, manifest_,
                                                  std::move(write_cost), pipe);
    // The begin/done barrier of every Execute runs over real Transport
    // endpoints (in-process mailboxes here; TCP in the multi-process
    // gauntlet), so the coordination protocol is exercised on every run.
    coord_transport_ =
        std::make_unique<net::InprocTransport>(hub_, net::kCoordinatorPeer);
    std::vector<net::PeerId> participants;
    rank_transports_.reserve(num_ranks);
    for (std::size_t r = 0; r < num_ranks; ++r) {
        rank_transports_.push_back(std::make_unique<net::InprocTransport>(
            hub_, static_cast<net::PeerId>(r)));
        participants.push_back(static_cast<net::PeerId>(r));
    }
    coordinator_ = std::make_unique<CheckpointCoordinator>(
        *coord_transport_, std::move(participants));
    // The agents persist only through the pipeline, which charges the
    // write cost; the agent's own write-cost model is never consulted.
    agents_.reserve(num_ranks);
    for (std::size_t r = 0; r < num_ranks; ++r) {
        agents_.push_back(std::make_unique<AsyncCheckpointAgent>(
            persist_, "rank" + std::to_string(r), cost));
        agents_.back()->AttachPipeline(pipeline_.get());
    }
}

ClusterRunStats
ClusterCheckpointEngine::Execute(const ShardPlan& plan, const BlobProvider& provider,
                                 std::size_t iteration) {
    MOC_CHECK_ARG(plan.num_ranks() == agents_.size(),
                  "plan rank count " << plan.num_ranks() << " != engine ranks "
                                     << agents_.size());
    MOC_CHECK_ARG(!has_executed_ || iteration > last_iteration_,
                  "checkpoint iterations must be strictly increasing (got "
                      << iteration << " after " << last_iteration_ << ")");
    ClusterRunStats stats;
    stats.generation = iteration;
    stats.per_rank_snapshot.assign(agents_.size(), 0.0);
    stats.per_rank_serialize.assign(agents_.size(), 0.0);

    pipeline_->BeginGeneration(iteration);

    WallClock clock;
    const Seconds start = clock.Now();

    // Announce the event over the transport: every rank's begin arrives as
    // a kCkptBegin message carrying the generation identity in its header,
    // and the coordinator collects each rank's kRankDone as the barrier.
    obs::TraceContext barrier_ctx;
    barrier_ctx.generation = iteration;
    barrier_ctx.iteration = iteration;
    barrier_ctx.phase = "barrier";
    coordinator_->BeginGeneration(iteration, barrier_ctx);

    // Each rank serializes its items and hands them to its agent; the
    // snapshot phases run concurrently across ranks (they sleep, not spin).
    std::vector<std::thread> workers;
    workers.reserve(agents_.size());
    for (std::size_t r = 0; r < agents_.size(); ++r) {
        workers.emplace_back([this, &plan, &provider, &stats, iteration, r] {
            WallClock rank_clock;
            RankParticipant participant(*rank_transports_[r]);
            const auto begin =
                participant.AwaitBegin(options_.barrier_deadline_s);
            if (!begin || begin->shutdown) {
                return;  // no begin arrived: the barrier reports us missing
            }
            // The flight-recorder identity of this rank's lane comes off
            // the wire (the kCkptBegin header), not local state: every span
            // and journal record downstream (snapshot thread, persist
            // workers, seal) is stamped with it.
            obs::TraceContext ctx;
            ctx.generation = begin->ctx.generation;
            ctx.iteration = begin->iteration;
            ctx.rank = static_cast<std::int32_t>(r);
            ctx.phase = "serialize";
            const obs::TraceContextScope ctx_scope(ctx);
            // CPU-side serialization is timed apart from the GPU->CPU
            // snapshot: folding it into the snapshot phase inflated the
            // Fig. 12 overlap numbers.
            const Seconds serialize_start = rank_clock.Now();
            std::vector<NamedShard> shards;
            shards.reserve(plan.Items(r).size());
            {
                const obs::TraceSpan span("cluster.serialize", "cluster");
                for (const auto& item : plan.Items(r)) {
                    shards.push_back(NamedShard{item.key, provider(item)});
                }
            }
            stats.per_rank_serialize[r] = rank_clock.Now() - serialize_start;
            const Seconds snapshot_start = rank_clock.Now();
            agents_[r]->RequestShardedCheckpoint(std::move(shards), iteration,
                                                 ctx);
            agents_[r]->WaitSnapshotComplete();
            stats.per_rank_snapshot[r] = rank_clock.Now() - snapshot_start;
            // Snapshot landed: report done over the transport. Shard
            // integrity reports stay empty in-process — the pipeline
            // records them in the manifest directly; the multi-process
            // ranks (examples/cluster_procs) carry them in this message.
            participant.SendDone(begin->iteration, {}, /*ok=*/true, ctx);
        });
    }
    {
        const obs::TraceContextScope barrier_scope(barrier_ctx);
        const obs::TraceSpan span("net.barrier.wait", "net");
        const Seconds wait_start = clock.Now();
        const BarrierResult barrier = coordinator_->AwaitReports(
            iteration, options_.barrier_deadline_s);
        stats.barrier_wait = clock.Now() - wait_start;
        stats.barrier_complete = barrier.complete;
        if (!barrier.complete) {
            MOC_WARN << "cluster: transport barrier incomplete for iteration "
                     << iteration << " (" << barrier.reports.size() << "/"
                     << agents_.size() << " reported, " << barrier.dead.size()
                     << " dead" << (barrier.timed_out ? ", timed out" : "")
                     << ")";
        }
    }
    for (auto& w : workers) {
        w.join();
    }
    stats.snapshot_makespan = clock.Now() - start;

    for (auto& agent : agents_) {
        agent->Drain();
    }
    const GenerationCommitStats gen = pipeline_->FinishGeneration();
    stats.keys_persisted = gen.shards_written;
    stats.bytes_persisted = gen.bytes_written;
    stats.keys_deduped = gen.shards_deduped;
    stats.bytes_deduped = gen.bytes_deduped;
    stats.keys_delta = gen.shards_delta;
    stats.bytes_delta_saved = gen.bytes_delta_saved;
    stats.forced_full = gen.forced_full;
    stats.persist_failures = gen.failures;
    stats.sealed = gen.sealed;
    stats.total_makespan = clock.Now() - start;
    last_iteration_ = iteration;
    has_executed_ = true;
    return stats;
}

}  // namespace moc

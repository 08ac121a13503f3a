#include "ckpt/persist_pipeline.h"

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/delta_codec.h"
#include "storage/store_error.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"

namespace moc {

void
WriteManifest(ResilientStore& store, const CheckpointManifest& manifest) {
    const std::string json = manifest.ToJson();
    try {
        store.Put(kManifestKey, Blob(json.begin(), json.end()));
    } catch (const StoreError& e) {
        obs::EventJournal::Instance().Append(
            {.kind = obs::EventKind::kStorageFault,
             .detail = std::string("manifest write failed: ") + e.what()});
        MOC_WARN << "persist: manifest write failed ("
                 << StoreErrorKindName(e.kind())
                 << "); offline audit lags until the next write";
    }
}

void
ShardBatch::Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t
ShardBatch::written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_;
}

std::size_t
ShardBatch::deduped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deduped_;
}

std::size_t
ShardBatch::failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

Bytes
ShardBatch::bytes_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_written_;
}

PersistPipeline::PersistPipeline(ResilientStore& store,
                                 CheckpointManifest& manifest,
                                 WriteCostFn write_cost,
                                 const PersistPipelineOptions& options)
    : store_(store),
      manifest_(manifest),
      write_cost_(std::move(write_cost)),
      options_(options) {
    MOC_CHECK_ARG(options.workers >= 1, "pipeline needs at least one worker");
    MOC_CHECK_ARG(options.queue_capacity >= 1, "queue capacity must be >= 1");
    MOC_CHECK_ARG(options.time_scale >= 0.0, "time_scale must be >= 0");
    MOC_CHECK_ARG(options.keep_generations == 0 || !options.delta,
                  "pruning erases full versions only; it needs delta off");
    workers_.reserve(options.workers);
    for (std::size_t i = 0; i < options.workers; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

PersistPipeline::~PersistPipeline() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    queue_cv_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void
PersistPipeline::BeginGeneration(std::size_t iteration) {
    std::lock_guard<std::mutex> lock(mu_);
    MOC_CHECK_ARG(!open_generation_.has_value(),
                  "generation " << *open_generation_
                                << " still open; finish it first");
    open_generation_ = iteration;
    gen_stats_ = GenerationCommitStats{};
    gen_stats_.iteration = iteration;
    staged_records_.clear();
}

std::shared_ptr<ShardBatch>
PersistPipeline::MakeBatch() {
    return std::make_shared<ShardBatch>();
}

void
PersistPipeline::Submit(std::string key, Blob blob, std::size_t iteration,
                        std::shared_ptr<ShardBatch> batch,
                        const obs::TraceContext& ctx,
                        std::optional<std::uint32_t> crc) {
    std::unique_lock<std::mutex> lock(mu_);
    MOC_CHECK_ARG(open_generation_.has_value() && *open_generation_ == iteration,
                  "submit for iteration " << iteration
                                          << " outside its open generation");
    queue_cv_.wait(lock, [this] {
        return queue_.size() < options_.queue_capacity || stop_;
    });
    MOC_CHECK_ARG(!stop_, "pipeline is shutting down");
    // Counted only once the job is accepted: a rejected submit must leave
    // its batch waitable. Holding mu_ keeps a worker from completing the
    // job before it is counted.
    if (batch) {
        std::lock_guard<std::mutex> batch_lock(batch->mu_);
        ++batch->pending_;
    }
    ++gen_stats_.shards;
    queue_.push_back(Job{std::move(key), std::move(blob), iteration, crc,
                         std::move(batch), ctx});
    queue_cv_.notify_all();
}

GenerationCommitStats
PersistPipeline::Seal() {
    std::unique_lock<std::mutex> lock(mu_);
    MOC_CHECK_ARG(open_generation_.has_value(), "no generation open");
    const std::size_t iteration = *open_generation_;
    // The seal barrier: its span starts when the last submitter calls in
    // and ends once the slowest shard drained — on the flight recorder it
    // is the join node every rank's persist lane feeds into.
    obs::TraceContext ctx;
    ctx.generation = iteration;
    ctx.iteration = iteration;
    ctx.phase = "seal";
    const obs::TraceContextScope ctx_scope(ctx);
    const obs::TraceSpan span("cluster.seal", "cluster");
    {
        const obs::WatchdogOp guard(options_.watchdog, "seal",
                                    options_.seal_budget_s, ctx,
                                    "gen=" + std::to_string(iteration));
        drain_cv_.wait(lock,
                       [this] { return queue_.empty() && in_flight_ == 0; });
    }

    gen_stats_.sealed =
        gen_stats_.failures == 0 &&
        gen_stats_.shards_written + gen_stats_.shards_deduped == gen_stats_.shards;
    const GenerationCommitStats stats = gen_stats_;
    if (stats.sealed) {
        for (auto& [key, entry] : staged_records_) {
            sealed_baseline_[key] = entry;
        }
    }
    staged_records_.clear();
    open_generation_.reset();
    lock.unlock();

    static obs::Counter& sealed_ctr =
        obs::MetricsRegistry::Instance().GetCounter("cluster.generations_sealed");
    static obs::Counter& unsealed_ctr =
        obs::MetricsRegistry::Instance().GetCounter(
            "cluster.generations_unsealed");
    obs::JournalEvent event;
    event.kind = obs::EventKind::kClusterSeal;
    event.iteration = iteration;
    event.bytes = stats.bytes_written;
    if (stats.sealed) {
        // Seal AFTER every shard verified: recovery never sees a generation
        // that is complete in the manifest but torn in the store.
        manifest_.MarkCheckpointComplete(StoreLevel::kPersist, iteration);
        sealed_ctr.Add();
        obs::MetricsRegistry::Instance()
            .GetGauge("cluster.last_sealed_generation")
            .Set(static_cast<double>(iteration));
        event.detail = "sealed shards=" + std::to_string(stats.shards) +
                       " written=" + std::to_string(stats.shards_written) +
                       " deduped=" + std::to_string(stats.shards_deduped) +
                       " delta=" + std::to_string(stats.shards_delta);
    } else {
        unsealed_ctr.Add();
        event.detail = "unsealed failures=" + std::to_string(stats.failures) +
                       " shards=" + std::to_string(stats.shards);
        MOC_WARN << "persist: generation " << iteration << " left unsealed ("
                 << stats.failures << " of " << stats.shards
                 << " shards failed); recovery falls back to the previous "
                    "sealed generation";
    }
    obs::EventJournal::Instance().Append(std::move(event));
    return stats;
}

GenerationCommitStats
PersistPipeline::FinishGeneration() {
    const GenerationCommitStats stats = Seal();
    // The manifest that stops listing the pruned versions lands before
    // their blobs go: a crash in between leaves orphan blobs, never a
    // manifest naming erased ones.
    std::vector<std::pair<std::string, std::size_t>> pruned;
    if (options_.keep_generations > 0) {
        pruned = manifest_.PrunePersistGenerations(options_.keep_generations);
    }
    WriteManifest(store_, manifest_);
    if (!pruned.empty()) {
        std::unique_lock<std::mutex> lock(mu_);
        for (const auto& [key, gen] : pruned) {
            Job job;
            job.key = options_.version_key(key, gen);
            job.erase = true;
            queue_.push_back(std::move(job));
        }
        queue_cv_.notify_all();
        drain_cv_.wait(lock,
                       [this] { return queue_.empty() && in_flight_ == 0; });
    }
    return stats;
}

void
PersistPipeline::WorkerLoop() {
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queue_cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
            if (queue_.empty()) {
                return;  // stop_ and nothing left to drain
            }
            // Only a pop from a full queue can unblock a submitter; other
            // pops would just wake the idle workers for nothing.
            if (queue_.size() >= options_.queue_capacity) {
                queue_cv_.notify_all();
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        if (!job.erase) {
            Execute(std::move(job));
            continue;
        }
        try {
            store_.Erase(job.key);
        } catch (const StoreError& e) {
            // Left as an orphan blob: no manifest names it any more.
            MOC_WARN << "persist: erase of pruned " << job.key
                     << " failed: " << e.what();
        }
        CompleteJob(job, /*written=*/false, /*deduped=*/false,
                    /*failed=*/false, /*bytes=*/0);
    }
}

void
PersistPipeline::Execute(Job job) {
    obs::TraceContext ctx = job.ctx;
    ctx.phase = "persist";
    const obs::TraceContextScope ctx_scope(ctx);
    const Seconds start = clock_.Now();
    const Bytes size = job.blob.size();
    // Hash only what is used: the submitter's CRC when it has one, and the
    // second dedup hash only when dedup can use it.
    const std::uint32_t crc =
        job.crc ? *job.crc : Crc32c(job.blob.data(), job.blob.size());
    const std::uint64_t hash =
        options_.dedup ? XxHash64(job.blob.data(), job.blob.size()) : 0;

    std::optional<SealedEntry> baseline;
    if (options_.dedup || options_.delta) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = sealed_baseline_.find(job.key);
        if (it != sealed_baseline_.end()) {
            baseline = it->second;
        }
    }

    // Dedup: identical content to the last sealed generation's entry is
    // recorded by reference, not re-persisted. Identity is the triple
    // (size, CRC-32C, xxHash64): a 32-bit hash alone collides under
    // realistic shard counts, and a false dedup silently restores the
    // wrong expert weights.
    if (options_.dedup && baseline && baseline->crc == crc &&
        baseline->hash == hash && baseline->bytes == size) {
        const SealedEntry entry = *baseline;  // keeps chain + chunk ids
        {
            std::lock_guard<std::mutex> lock(mu_);
            staged_records_.emplace_back(job.key, entry);
            gen_stats_.bytes_deduped += size;
        }
        manifest_.RecordPersistVersion(job.key, job.iteration, size, crc,
                                       /*verified=*/true,
                                       entry.physical_iteration);
        static obs::Counter& dedup_ctr =
            obs::MetricsRegistry::Instance().GetCounter(
                "cluster.shards_deduped");
        static obs::Counter& dedup_bytes =
            obs::MetricsRegistry::Instance().GetCounter(
                "cluster.bytes_deduped");
        dedup_ctr.Add();
        dedup_bytes.Add(size);
        CompleteJob(job, /*written=*/false, /*deduped=*/true,
                    /*failed=*/false, /*bytes=*/0);
        return;
    }

    // Delta: a changed shard whose size matches the baseline diffs against
    // it chunk-by-chunk; when only part of the grid changed and the chain
    // is still under its bound, persist the changed chunks instead of the
    // whole blob. Everything else falls through to a full write.
    std::shared_ptr<const std::vector<ChunkId>> chunks;
    std::vector<std::uint32_t> changed;
    bool as_delta = false;
    if (options_.delta) {
        chunks = std::make_shared<const std::vector<ChunkId>>(
            HashChunks(job.blob, options_.delta_chunk_bytes));
        if (baseline && baseline->bytes == size && baseline->chunks &&
            baseline->chunks->size() == chunks->size()) {
            for (std::size_t i = 0; i < chunks->size(); ++i) {
                if ((*chunks)[i] != (*baseline->chunks)[i]) {
                    changed.push_back(static_cast<std::uint32_t>(i));
                }
            }
            if (!changed.empty() && changed.size() < chunks->size()) {
                if (baseline->chain_length < options_.max_delta_chain) {
                    as_delta = true;
                } else {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++gen_stats_.forced_full;
                    static obs::Counter& forced_ctr =
                        obs::MetricsRegistry::Instance().GetCounter(
                            "cluster.delta.forced_full");
                    forced_ctr.Add();
                }
            }
        }
    }

    // The base iteration always holds a physically resolvable version of
    // this key (a full blob, or a shorter delta chain), so restore and
    // fsck can walk the chain without chasing dedup refs first.
    const std::size_t delta_base = baseline ? baseline->physical_iteration : 0;
    Blob wire = as_delta ? EncodeDelta(job.blob, changed,
                                       options_.delta_chunk_bytes, delta_base)
                         : std::move(job.blob);
    const Bytes wire_size = wire.size();
    const std::uint32_t wire_crc =
        as_delta ? Crc32c(wire.data(), wire.size()) : crc;
    const std::string physical =
        as_delta ? DeltaShardKey(job.key, job.iteration)
                 : options_.version_key(job.key, job.iteration);

    bool ok = true;
    // The watchdog covers the whole write+verify: a latency spike inside
    // Put (FaultyStore) or a hung filesystem fires a `stall` event while
    // this op is still blocked.
    const obs::WatchdogOp stall_guard(options_.watchdog, "persist",
                                      options_.shard_budget_s, ctx,
                                      "key=" + job.key);
    try {
        if (write_cost_) {
            clock_.Advance(write_cost_(wire_size) * options_.time_scale);
        }
        store_.Put(physical, std::move(wire), wire_crc);
    } catch (const StoreError& e) {
        ok = false;
        obs::EventJournal::Instance().Append(
            {.kind = obs::EventKind::kStorageFault,
             .iteration = job.iteration,
             .bytes = wire_size,
             .detail = "shard " + job.key + " persist failed (" +
                       StoreErrorKindName(e.kind()) + ")"});
        MOC_WARN << "persist: " << physical << " failed ("
                 << StoreErrorKindName(e.kind()) << "); recorded unverified";
    }

    // A failed write is still recorded, as unverified: fsck and the
    // fallback chains skip it, and it keeps its generation unsealed.
    if (as_delta) {
        manifest_.RecordPersistDelta(job.key, job.iteration, size, crc, ok,
                                     delta_base, wire_size, wire_crc);
    } else {
        manifest_.RecordPersistVersion(job.key, job.iteration, size, crc, ok);
    }
    if (ok && (options_.dedup || options_.delta)) {
        SealedEntry entry;
        entry.crc = crc;
        entry.hash = hash;
        entry.bytes = size;
        entry.physical_iteration = job.iteration;
        entry.chain_length = as_delta ? baseline->chain_length + 1 : 0;
        entry.chunks = chunks;
        std::lock_guard<std::mutex> lock(mu_);
        staged_records_.emplace_back(job.key, std::move(entry));
        if (as_delta) {
            ++gen_stats_.shards_delta;
            gen_stats_.bytes_delta_saved += size - wire_size;
        }
    }

    static obs::Counter& written_ctr =
        obs::MetricsRegistry::Instance().GetCounter("cluster.shards_written");
    static obs::Counter& written_bytes =
        obs::MetricsRegistry::Instance().GetCounter("cluster.bytes_written");
    static obs::Counter& failures_ctr =
        obs::MetricsRegistry::Instance().GetCounter("cluster.persist_failures");
    static obs::Histogram& latency =
        obs::MetricsRegistry::Instance().GetHistogram(
            "cluster.shard_persist_seconds");
    latency.Observe(clock_.Now() - start);
    if (ok) {
        written_ctr.Add();
        written_bytes.Add(wire_size);
        if (as_delta) {
            static obs::Counter& delta_ctr =
                obs::MetricsRegistry::Instance().GetCounter(
                    "cluster.delta.shards");
            static obs::Counter& delta_bytes =
                obs::MetricsRegistry::Instance().GetCounter(
                    "cluster.delta.bytes_written");
            static obs::Counter& delta_saved =
                obs::MetricsRegistry::Instance().GetCounter(
                    "cluster.delta.bytes_saved");
            delta_ctr.Add();
            delta_bytes.Add(wire_size);
            delta_saved.Add(size - wire_size);
        }
    } else {
        failures_ctr.Add();
    }
    CompleteJob(job, ok, /*deduped=*/false, /*failed=*/!ok, ok ? wire_size : 0);
}

void
PersistPipeline::CompleteJob(const Job& job, bool written, bool deduped,
                             bool failed, Bytes bytes) {
    bool drained = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        gen_stats_.shards_written += written ? 1 : 0;
        gen_stats_.shards_deduped += deduped ? 1 : 0;
        gen_stats_.failures += failed ? 1 : 0;
        gen_stats_.bytes_written += bytes;
        --in_flight_;
        drained = queue_.empty() && in_flight_ == 0;
    }
    if (drained) {
        drain_cv_.notify_all();  // the only state the drain waits for
    }
    if (job.batch) {
        {
            std::lock_guard<std::mutex> lock(job.batch->mu_);
            job.batch->written_ += written ? 1 : 0;
            job.batch->deduped_ += deduped ? 1 : 0;
            job.batch->failed_ += failed ? 1 : 0;
            job.batch->bytes_written_ += bytes;
            --job.batch->pending_;
        }
        job.batch->cv_.notify_all();
    }
}

}  // namespace moc

/**
 * @file
 * cluster_dedup and cluster_hot_delta: ClusterCheckpointEngine ->
 * PersistPipeline -> FileStore, then PlanClusterRestore +
 * ExecuteClusterRestore of the newest sealed generation after every event,
 * compared byte for byte with the pre-generated state.
 *
 * Both use 4 ranks (the machine has 4 cores), each holding 1 dense shard and
 * 16 expert shards, and no modeled sleeps (time_scale 0).
 *
 *  - cluster_dedup: 1 MiB expert and 4 MiB dense shards. Each event changes
 *    every dense shard and K=8 of the 64 experts; dedup on, delta off. Full
 *    writes are bandwidth- and hash-bound.
 *  - cluster_hot_delta: 1 MiB shards, 4 KiB chunks. Every shard changes
 *    2 of its 256 chunks per event, so dedup never fires; delta on with
 *    max_delta_chain 8, and the run passes the bound so a forced full write
 *    occurs. Writes are small; restores walk the chains. The shards are
 *    large enough that hashing them is a good share of each event next to
 *    the per-put fsync latency, which on a shared virtual disk drifts by
 *    tens of percent within a minute.
 *
 * One repetition is a fixed run in a fresh store: engine construction and
 * the first full generation (set-up), then the steady events. The shard
 * bytes of every event are generated before timing; the BlobProvider only
 * copies them.
 */

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "storage/file_store.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace moc;

constexpr std::size_t kRanks = 4;
constexpr std::size_t kExpertsPerRank = 16;

/** One cluster workload's shape. */
struct Shape {
    bool delta = false;
    /** Planned sizes; SyntheticShardBytes stores 1 KiB per planned MiB. */
    Bytes dense_bytes = 0;
    Bytes expert_bytes = 0;
    /** Experts changed per event (dedup workload). */
    std::size_t changed_experts = 0;
    std::size_t chunk_bytes = 64 * 1024;
    std::size_t max_delta_chain = 8;
    /** Generations per repetition, the set-up generation included. */
    std::size_t events = 0;
};

Shape
ShapeFor(const std::string& workload) {
    Shape s;
    if (workload == "cluster_dedup") {
        s.dense_bytes = 4 * kGiB;
        s.expert_bytes = 1 * kGiB;
        s.changed_experts = 8;
        // 8 steady events: every expert changes once per repetition.
        s.events = 9;
    } else {
        s.delta = true;
        s.dense_bytes = 1 * kGiB;
        s.expert_bytes = 1 * kGiB;
        s.chunk_bytes = 4 * 1024;
        s.max_delta_chain = 8;
        // Events 2-9 chain 8 deltas, event 10 is forced full, event 11
        // starts a new chain.
        s.events = 11;
    }
    return s;
}

ShardPlan
MakePlan(const Shape& shape) {
    ShardPlan plan(kRanks);
    for (RankId r = 0; r < kRanks; ++r) {
        plan.Add(r, {"dense/" + std::to_string(r), shape.dense_bytes, false});
        for (std::size_t e = 0; e < kExpertsPerRank; ++e) {
            const std::size_t id = r * kExpertsPerRank + e;
            plan.Add(r, {"expert/" + std::to_string(id) + "/w",
                         shape.expert_bytes, false});
        }
    }
    return plan;
}

/** Every event's shard bytes, generated once before timing. */
struct Inputs {
    std::vector<ShardItem> items;  // rank-major, plan order
    std::vector<std::string> store_keys;
    std::unordered_map<std::string, std::size_t> index;
    std::deque<Blob> pool;
    /** state[event][item] for events 1..shape.events (slot 0 unused). */
    std::vector<std::vector<const Blob*>> state;
    /** Bytes one event hands to the engine. */
    Bytes event_bytes = 0;
};

Inputs
MakeInputs(const Shape& shape, const ShardPlan& plan, std::uint64_t seed) {
    Inputs in;
    for (RankId r = 0; r < kRanks; ++r) {
        for (const ShardItem& item : plan.Items(r)) {
            in.index[item.key] = in.items.size();
            in.items.push_back(item);
            in.store_keys.push_back("rank" + std::to_string(r) + "/" +
                                    item.key);
        }
    }
    const std::size_t n = in.items.size();
    in.state.assign(shape.events + 1, std::vector<const Blob*>(n, nullptr));
    Rng rng(seed ^ 0xC1D5ULL);
    if (!shape.delta) {
        // Two versions per shard; a changed shard flips to the other one,
        // which always differs from the last sealed generation's copy.
        std::vector<const Blob*> versions[2];
        for (std::uint64_t v = 0; v < 2; ++v) {
            for (const ShardItem& item : in.items) {
                in.pool.push_back(SyntheticShardBytes(item, seed * 2 + v));
                versions[v].push_back(&in.pool.back());
            }
        }
        std::vector<std::size_t> experts;
        std::vector<int> version(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (in.items[i].key.rfind("expert/", 0) == 0) {
                experts.push_back(i);
            }
        }
        for (std::size_t i = experts.size(); i > 1; --i) {
            std::swap(experts[i - 1], experts[rng.UniformInt(i)]);
        }
        std::size_t next_expert = 0;
        for (std::size_t e = 1; e <= shape.events; ++e) {
            if (e > 1) {
                for (std::size_t i = 0; i < n; ++i) {
                    if (in.items[i].key.rfind("dense/", 0) == 0) {
                        version[i] ^= 1;
                    }
                }
                for (std::size_t k = 0; k < shape.changed_experts; ++k) {
                    version[experts[next_expert++ % experts.size()]] ^= 1;
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                in.state[e][i] = versions[version[i]][i];
            }
        }
    } else {
        // Cumulative churn: each event XORs a run of about 1% (at least one)
        // of the chunks of every shard.
        std::vector<Blob> live;
        for (const ShardItem& item : in.items) {
            live.push_back(SyntheticShardBytes(item, seed));
        }
        for (std::size_t e = 1; e <= shape.events; ++e) {
            for (std::size_t i = 0; i < n; ++i) {
                Blob& blob = live[i];
                if (e > 1) {
                    const std::size_t chunks =
                        (blob.size() + shape.chunk_bytes - 1) / shape.chunk_bytes;
                    const std::size_t run = std::max<std::size_t>(1, chunks / 100);
                    const std::size_t begin =
                        rng.UniformInt(chunks - run + 1) * shape.chunk_bytes;
                    const std::size_t end =
                        std::min(begin + run * shape.chunk_bytes, blob.size());
                    const auto mask =
                        static_cast<std::uint8_t>(1 + rng.UniformInt(255));
                    for (std::size_t b = begin; b < end; ++b) {
                        blob[b] ^= mask;
                    }
                }
                in.pool.push_back(blob);
                in.state[e][i] = &in.pool.back();
            }
        }
    }
    for (const Blob* blob : in.state[1]) {
        in.event_bytes += blob->size();
    }
    return in;
}

/** Accumulated measurements over the repetitions of one trace mode. */
struct Tally {
    Samples setup;
    Samples stall;
    Samples restore;
    double loop_s = 0.0;
    std::size_t generations = 0;
    std::uint64_t store_bytes = 0;
    // Traced repetitions only.
    Samples serialize_max;
    Samples snapshot_makespan;
    Samples barrier_wait;
    Samples drain;
    Samples plan_s;
    Samples exec_s;
    std::size_t written = 0;
    std::size_t deduped = 0;
    std::size_t delta = 0;
    std::size_t forced_full = 0;
    std::size_t failures = 0;
    Bytes delta_logical = 0;
    Bytes delta_wire = 0;
    StoreIo event_io;
    StoreIo restore_io;
    std::size_t restored_shards = 0;
    Bytes restored_bytes = 0;
};

void
RunRep(const Options& options, const Shape& shape, const ShardPlan& plan,
       const Inputs& in, std::size_t rep, bool traced, Tally& tally,
       Result& result) {
    const std::filesystem::path dir =
        options.dir / ("cluster_rep" + std::to_string(rep));
    RemoveStore(dir);

    const std::vector<const Blob*>* current = &in.state[1];
    const BlobProvider provider = [&in, &current](const ShardItem& item) {
        return Blob(*(*current)[in.index.at(item.key)]);
    };

    StartRepetition();
    const double setup_start = NowS();
    FileStore disk(dir);
    std::unique_ptr<TimedStore> timed;
    ObjectStore* store = &disk;
    if (traced) {
        timed = std::make_unique<TimedStore>(disk);
        store = timed.get();
    }
    AgentCostModel cost;
    cost.time_scale = 0.0;  // no modeled sleeps: only real work is timed
    ClusterEngineOptions engine_opts;
    engine_opts.dedup = true;
    engine_opts.delta = shape.delta;
    engine_opts.delta_chunk_bytes = shape.chunk_bytes;
    engine_opts.max_delta_chain = shape.max_delta_chain;
    ClusterCheckpointEngine engine(*store, kRanks, cost, engine_opts);
    const ClusterRunStats first = engine.Execute(plan, provider, 1);
    tally.setup.Add(NowS() - setup_start);
    result.Check(first.sealed, "set-up generation 1 not sealed");
    if (timed) {
        timed->Take();
    }

    for (std::size_t event = 2; event <= shape.events; ++event) {
        current = &in.state[event];
        const std::uint64_t bytes_before = FileStoreBytesWritten();
        double t0 = NowS();
        const ClusterRunStats stats = engine.Execute(plan, provider, event);
        const double seal = NowS() - t0;
        tally.stall.Add(seal);
        tally.loop_s += seal;
        ++tally.generations;
        tally.store_bytes += FileStoreBytesWritten() - bytes_before;
        result.Check(stats.sealed && stats.persist_failures == 0 &&
                         stats.barrier_complete,
                     "generation " + std::to_string(event) + " not sealed");
        if (timed) {
            tally.event_io.Merge(timed->Take());
            double serialize_max = 0.0;
            for (const double s : stats.per_rank_serialize) {
                serialize_max = std::max(serialize_max, s);
            }
            tally.serialize_max.Add(serialize_max);
            tally.snapshot_makespan.Add(stats.snapshot_makespan);
            tally.barrier_wait.Add(stats.barrier_wait);
            tally.drain.Add(stats.total_makespan - stats.snapshot_makespan);
            tally.written += stats.keys_persisted;
            tally.deduped += stats.keys_deduped;
            tally.delta += stats.keys_delta;
            tally.forced_full += stats.forced_full;
            tally.failures += stats.persist_failures;
            for (const std::string& key : in.store_keys) {
                const auto version =
                    engine.manifest().FindPersistVersion(key, event);
                if (version && version->is_delta()) {
                    tally.delta_logical += version->bytes;
                    tally.delta_wire += version->delta_bytes;
                }
            }
        }

        t0 = NowS();
        const auto restore_plan = PlanClusterRestore(engine.manifest());
        const double t1 = NowS();
        if (options.corrupt && rep == 0 && event == 2 && restore_plan &&
            !restore_plan->shards.empty()) {
            CorruptStoredBlob(dir, restore_plan->shards.front().physical_key);
        }
        ClusterRestoreResult restored;
        if (restore_plan) {
            restored = ExecuteClusterRestore(engine.manifest(), *store,
                                             *restore_plan);
        }
        const double t2 = NowS();
        tally.restore.Add(t2 - t0);
        tally.loop_s += t2 - t0;
        if (timed) {
            tally.restore_io.Merge(timed->Take());
            tally.plan_s.Add(t1 - t0);
            tally.exec_s.Add(t2 - t1);
            tally.restored_shards += restored.shards_restored;
            for (const auto& [key, blob] : restored.blobs) {
                tally.restored_bytes += blob.size();
            }
        }

        // Oracle: every key byte-identical to the generated state at the
        // iteration its restore actually used.
        bool identical = restore_plan.has_value() &&
                         restore_plan->generation == event &&
                         restore_plan->missing.empty() &&
                         restore_plan->degraded.empty() &&
                         restored.damaged.empty() && restored.degraded.empty() &&
                         restored.blobs.size() == in.items.size();
        if (identical) {
            for (const ShardRestorePlan& shard : restore_plan->shards) {
                const auto it = restored.blobs.find(shard.key);
                const std::string item_key =
                    shard.key.substr(shard.key.find('/') + 1);
                identical = identical && it != restored.blobs.end() &&
                            shard.iteration >= 1 &&
                            shard.iteration <= shape.events &&
                            it->second ==
                                *in.state[shard.iteration][in.index.at(item_key)];
            }
        }
        result.Check(identical, "restore of generation " +
                                    std::to_string(event) +
                                    " is not byte-identical");
    }
    RemoveStore(dir);
}

/** Synthetic parameter groups shaped like one rank's shards. */
struct RankParams {
    std::vector<std::unique_ptr<Parameter>> params;
    std::vector<ParamGroup> groups;
};

RankParams
MakeRankParams(const Inputs& in) {
    RankParams out;
    // Rank 0's items: its dense shard and its first expert stand for all.
    for (std::size_t i = 0; i < 2; ++i) {
        const std::size_t floats = in.state[1][i]->size() / sizeof(float);
        out.params.push_back(std::make_unique<Parameter>(
            in.items[i].key, Tensor(std::vector<std::size_t>{floats})));
        ParamGroup group;
        group.key = in.items[i].key;
        group.params = {out.params.back().get()};
        out.groups.push_back(std::move(group));
    }
    return out;
}

}  // namespace

void
RunCluster(const Options& options, Result& result) {
    const Shape shape = ShapeFor(options.workload);
    const ShardPlan plan = MakePlan(shape);
    const Inputs in = MakeInputs(shape, plan, options.seed);

    Tally plain;
    Tally traced;
    const double start = NowS();
    for (std::size_t rep = 0;
         KeepGoing(options, start, rep, options.trace ? 4 : 3,
                   plain.stall.size() + traced.stall.size());
         ++rep) {
        const bool is_traced = options.trace && rep % 2 == 1;
        RunRep(options, shape, plan, in, rep, is_traced,
               is_traced ? traced : plain, result);
    }

    std::printf("%s: %zu generations (tail = p%.0f), %zu shards of %s "
                "per generation\n",
                options.workload.c_str(), plain.generations + traced.generations,
                kTailQuantile * 100, in.items.size(),
                moc::FormatBytes(in.event_bytes).c_str());
    if (!options.trace) {
        result.Add("setup_s", plain.setup.Median());
        result.Add("ckpt.stall_s_p50", plain.stall.Median());
        result.Add("ckpt.stall_s_tail",
                   plain.stall.Quantile(kTailQuantile));
        result.Add("restore_s_p50", plain.restore.Median());
        result.Add("loop.steps_per_s",
                   static_cast<double>(plain.generations) / plain.loop_s);
        result.Add("persist_bytes_per_event",
                   static_cast<double>(plain.store_bytes) /
                       static_cast<double>(plain.generations));
        result.Add("peak_rss_mb", PeakRssMb());
        return;
    }

    const auto events = static_cast<double>(traced.generations);
    AddStorageMetrics(traced.event_io, events,
                      static_cast<double>(in.event_bytes) * events, result);
    result.Add("ckpt.serialize_s_max", traced.serialize_max.Median());
    result.Add("ckpt.snapshot_makespan_s", traced.snapshot_makespan.Median());
    result.Add("ckpt.barrier_wait_s", traced.barrier_wait.Median());
    result.Add("ckpt.drain_s", traced.drain.Median());
    result.Add("ckpt.shards_written",
               static_cast<double>(traced.written) / events);
    result.Add("ckpt.shards_deduped",
               static_cast<double>(traced.deduped) / events);
    result.Add("ckpt.dedup_hit_ratio",
               static_cast<double>(traced.deduped) /
                   static_cast<double>(traced.written + traced.deduped));
    result.Add("ckpt.persist_failures", static_cast<double>(traced.failures));
    result.Add("delta.shards_delta", static_cast<double>(traced.delta) / events);
    result.Add("delta.forced_full",
               static_cast<double>(traced.forced_full) / events);
    result.Add("delta.saved_ratio",
               traced.delta_logical > 0
                   ? static_cast<double>(traced.delta_logical -
                                         traced.delta_wire) /
                         static_cast<double>(traced.delta_logical)
                   : 0.0);
    result.Add("restore.plan_s", traced.plan_s.Median());
    result.Add("restore.exec_s", traced.exec_s.Median());
    result.Add("restore.get_calls_per_shard",
               static_cast<double>(traced.restore_io.get.calls) /
                   static_cast<double>(traced.restored_shards));
    result.Add("restore.read_amp",
               static_cast<double>(traced.restore_io.get.bytes) /
                   static_cast<double>(traced.restored_bytes));
    result.Add("obs.trace_overhead_ratio",
               traced.stall.Median() / plain.stall.Median());

    // Probes at the workload's own sizes: the expert shard, the delta chunk
    // grid and ~1% of it changed, and one rank's dense + expert tensors.
    RankParams rank_params = MakeRankParams(in);
    ProbeShape probe;
    probe.shard_bytes = in.state[1][1]->size();
    probe.chunk_bytes = shape.chunk_bytes;
    probe.changed_chunks = std::max<std::size_t>(
        1, probe.shard_bytes / shape.chunk_bytes / 100);
    RunProbes(probe, rank_params.groups, options.dir, result);
}

}  // namespace perfbench

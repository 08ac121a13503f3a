/**
 * @file
 * train_pec: real MoE LM training with MocCheckpointSystem over a FileStore.
 *
 * The only workload where nn compute competes with core serialization and
 * the synchronous small-file FileStore path (plain key + gen/ twin, fsync +
 * directory fsync, ResilientStore read-back verify), and the only one that
 * exercises two-level recovery. PEC runs with K_snapshot=4, K_persist=1 and
 * Dynamic-K off, so every checkpoint event persists the same bytes. The
 * hidden size is large enough that serializing, CRC-ing and writing the
 * bytes is a large share of each event, not just the per-put fsync latency,
 * which on a shared virtual disk drifts by tens of percent within a minute.
 *
 * One repetition is a fixed run: build the model and the system (initial
 * full checkpoint = set-up), train kIterations with a checkpoint every
 * kCkptInterval and two seeded node faults, then cold-start a fresh model
 * from the store kRestores times. Every repetition computes the same loss
 * trajectory; repetitions continue until the measuring time is spent.
 */

#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/cold_start.h"
#include "core/moc_system.h"
#include "data/corpus.h"
#include "faults/injector.h"
#include "nn/adam.h"
#include "nn/eval.h"
#include "nn/model.h"
#include "storage/file_store.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace moc;

constexpr std::size_t kBatch = 4;
constexpr std::size_t kSeq = 16;
constexpr std::size_t kIterations = 32;
constexpr std::size_t kCkptInterval = 4;
constexpr std::size_t kFaultsPerRep = 2;
constexpr std::size_t kRestores = 3;
constexpr std::size_t kEvalBatches = 4;

LmConfig
ModelConfig(std::uint64_t seed) {
    LmConfig cfg;
    cfg.vocab = 64;
    cfg.max_seq = kSeq;
    cfg.hidden = 96;
    cfg.num_heads = 2;
    cfg.head_dim = 48;
    cfg.num_layers = 4;
    cfg.num_experts = 16;
    cfg.seed = seed;
    return cfg;
}

/** The seeded node-fault schedule of one repetition. */
std::vector<FaultEvent>
FaultSchedule(std::uint64_t seed) {
    Rng rng(seed ^ 0xFA17ULL);
    std::vector<FaultEvent> events;
    while (events.size() < kFaultsPerRep) {
        const std::size_t iter =
            kIterations / 4 + rng.UniformInt(kIterations - kIterations / 4);
        bool taken = false;
        for (const auto& e : events) {
            taken = taken || e.iteration == iter;
        }
        if (!taken) {
            events.push_back({iter, {static_cast<NodeId>(rng.UniformInt(2))}});
        }
    }
    return events;
}

std::string
UnitKey(const ParamGroup& group, bool weights) {
    return group.key + (weights ? "/w" : "/o");
}

/** Accumulated measurements over the repetitions of one trace mode. */
struct Tally {
    Samples setup;
    Samples stall;
    Samples recover;
    Samples restore;
    Samples train_step;
    Samples routing;
    double loop_s = 0.0;
    double ckpt_s = 0.0;
    std::size_t iterations = 0;
    std::size_t events = 0;
    std::uint64_t store_bytes = 0;
    Bytes persist_bytes = 0;
    Bytes snapshot_bytes = 0;
    std::size_t recoveries = 0;
    Bytes recover_memory_bytes = 0;
    Bytes recover_storage_bytes = 0;
    StoreIo event_io;
    StoreIo restore_io;
    Bytes restored_bytes = 0;
    std::size_t restored_keys = 0;
};

/** Runs one repetition; adds its measurements to @p tally. */
void
RunRep(const Options& options, std::size_t rep, bool traced,
       const std::vector<LmBatch>& batches, const LmBatchStream& valid,
       std::optional<std::uint64_t>& digest, double& final_loss, Tally& tally,
       Result& result) {
    const std::filesystem::path dir =
        options.dir / ("train_rep" + std::to_string(rep));
    RemoveStore(dir);

    StartRepetition();
    const double setup_start = NowS();
    FileStore disk(dir);
    std::unique_ptr<TimedStore> timed;
    ObjectStore* store = &disk;
    if (traced) {
        timed = std::make_unique<TimedStore>(disk);
        store = timed.get();
    }
    const LmConfig model_cfg = ModelConfig(options.seed);
    MoeTransformerLm model(model_cfg);
    const RankTopology topology({.dp = 16, .ep = 16, .tp = 1, .pp = 1},
                                /*gpus_per_node=*/8);
    AdamConfig adam_cfg;
    adam_cfg.lr = 3e-3;
    Adam adam(adam_cfg);
    const auto params = model.AllParameters();
    MocSystemConfig moc_cfg;
    moc_cfg.pec.k_snapshot = 4;
    moc_cfg.pec.k_persist = 1;
    moc_cfg.i_ckpt = kCkptInterval;
    moc_cfg.two_level_recovery = true;
    moc_cfg.dynamic_k = false;
    moc_cfg.persist_backend = store;
    MocCheckpointSystem system(moc_cfg, model, topology,
                               model.config().ToModelSpec(),
                               {0, 0, model.gating_rng().GetState()});
    tally.setup.Add(NowS() - setup_start);
    if (timed) {
        timed->Take();  // set-up I/O is not a checkpoint event
    }

    // Oracle: each unit's serialized bytes at its latest persisted version.
    std::map<std::string, std::pair<std::size_t, Blob>> oracle;
    const auto capture = [&](std::size_t iteration) {
        for (const ParamGroup& group : model.ParameterGroups()) {
            for (const bool weights : {true, false}) {
                const std::string key = UnitKey(group, weights);
                const auto latest =
                    system.manifest().Latest(StoreLevel::kPersist, key);
                if (latest && latest->iteration == iteration) {
                    oracle[key] = {iteration,
                                   SerializeParamList(group.params, weights)};
                }
            }
        }
    };
    capture(0);

    FaultInjector injector(FaultSchedule(options.seed));
    std::uint64_t loss_digest = moc::Fnv1a64(nullptr, 0);
    const auto fold = [&loss_digest](double loss) {
        loss_digest = moc::Fnv1a64Update(loss_digest, &loss, sizeof(loss));
    };
    std::size_t iter = 0;
    while (iter < kIterations) {
        double t0 = NowS();
        fold(model.TrainBackward(batches[iter]));
        const double t1 = NowS();
        system.RecordRouting(model.MoeLayers());
        const double t2 = NowS();
        adam.Step(params);
        const double t3 = NowS();
        tally.train_step.Add((t1 - t0) + (t3 - t2));
        tally.routing.Add(t2 - t1);
        tally.loop_s += t3 - t0;
        ++iter;

        if (system.ShouldCheckpoint(iter)) {
            const std::uint64_t bytes_before = FileStoreBytesWritten();
            t0 = NowS();
            const CheckpointReport report = system.Checkpoint(
                iter, {iter, adam.step_count(), model.gating_rng().GetState()});
            const double stall = NowS() - t0;
            tally.stall.Add(stall);
            tally.loop_s += stall;
            tally.ckpt_s += stall;
            ++tally.events;
            tally.store_bytes += FileStoreBytesWritten() - bytes_before;
            tally.persist_bytes += report.persist_bytes;
            tally.snapshot_bytes += report.snapshot_bytes;
            if (timed) {
                tally.event_io.Merge(timed->Take());
            }
            capture(iter);
        }

        if (auto fault = injector.Poll(iter)) {
            t0 = NowS();
            try {
                const RecoveryReport report =
                    system.RecoverFromFault(fault->nodes);
                const double took = NowS() - t0;
                tally.recover.Add(took);
                tally.loop_s += took;
                ++tally.recoveries;
                tally.recover_memory_bytes += report.plan.bytes_from_memory;
                tally.recover_storage_bytes += report.plan.bytes_from_storage;
                adam.set_step_count(report.extra.adam_step);
                model.gating_rng().SetState(report.extra.gating_rng);
                result.Check(report.degraded.empty() &&
                                 report.generation_fallbacks == 0,
                             "recovery degraded");
                iter = report.extra.iteration;
            } catch (const std::exception& e) {
                result.Check(false, std::string("recovery threw: ") + e.what());
                return;
            }
            if (timed) {
                timed->Take();  // recovery reads are not checkpoint events
            }
        }
    }
    tally.iterations += kIterations;
    const double eval_loss = EvalStreamLoss(model, valid, kEvalBatches);
    fold(eval_loss);
    if (!digest) {
        digest = loss_digest;
        final_loss = eval_loss;
    }
    result.Check(*digest == loss_digest,
                 "loss trajectory differs from the first repetition");

    if (options.corrupt && rep == 0) {
        // Damage both copies of one non-expert unit's newest version: the
        // newest generation is then unusable and cold start must fall back.
        const std::string key = UnitKey(model.ParameterGroups().front(), true);
        CorruptStoredBlob(dir, key);
        CorruptStoredBlob(dir, MocCheckpointSystem::GenKey(kIterations, key));
    }
    const CheckpointManifest& manifest = system.manifest();
    for (std::size_t r = 0; r < kRestores; ++r) {
        MoeTransformerLm fresh(model_cfg);
        const double t0 = NowS();
        ColdStartReport report;
        try {
            report = ColdStartFromStore(fresh, *store, manifest);
        } catch (const std::exception& e) {
            result.Check(false, std::string("cold start threw: ") + e.what());
            continue;
        }
        tally.restore.Add(NowS() - t0);
        if (timed) {
            tally.restore_io.Merge(timed->Take());
            tally.restored_bytes += report.bytes_read;
            tally.restored_keys += report.keys_restored;
        }
        bool identical = report.generation == kIterations &&
                         report.extra.iteration == kIterations &&
                         report.degraded.empty() && report.missing.empty();
        for (const ParamGroup& group : fresh.ParameterGroups()) {
            for (const bool weights : {true, false}) {
                const std::string key = UnitKey(group, weights);
                const auto it = oracle.find(key);
                const auto latest = manifest.Latest(StoreLevel::kPersist, key);
                identical = identical && it != oracle.end() && latest &&
                            latest->iteration == it->second.first &&
                            SerializeParamList(group.params, weights) ==
                                it->second.second;
            }
        }
        result.Check(identical, "cold start is not byte-identical to the "
                                "newest persisted version of every unit");
    }
    RemoveStore(dir);
}

}  // namespace

void
RunTrainPec(const Options& options, Result& result) {
    // Inputs: every batch the fixed run can touch, made before timing.
    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 64;
    corpus_cfg.seed = options.seed;
    const ZipfMarkovCorpus corpus(corpus_cfg);
    const LmBatchStream train(corpus, kBatch, kSeq, 0);
    const LmBatchStream valid(corpus, kBatch, kSeq, 1);
    std::vector<LmBatch> batches;
    batches.reserve(kIterations);
    for (std::size_t i = 0; i < kIterations; ++i) {
        batches.push_back(train.Get(i));
    }

    // A traced run alternates plain and traced repetitions, so the plain
    // ones give the denominator of the trace-overhead ratio.
    Tally plain;
    Tally traced;
    std::optional<std::uint64_t> digest;
    double final_loss = 0.0;
    const double start = NowS();
    for (std::size_t rep = 0;
         KeepGoing(options, start, rep, options.trace ? 4 : 3,
                   plain.stall.size() + traced.stall.size());
         ++rep) {
        const bool is_traced = options.trace && rep % 2 == 1;
        RunRep(options, rep, is_traced, batches, valid, digest, final_loss,
               is_traced ? traced : plain, result);
    }

    const double tokens_per_iteration = static_cast<double>(kBatch * kSeq);
    std::printf("train_pec: %zu checkpoint events (tail = p%.0f), %zu "
                "recoveries, final loss %.6f, checkpoint share of loop "
                "time %.1f%%\n",
                plain.events + traced.events, kTailQuantile * 100,
                plain.recoveries + traced.recoveries, final_loss,
                100.0 * (plain.ckpt_s + traced.ckpt_s) /
                    (plain.loop_s + traced.loop_s));
    if (!options.trace) {
        result.Add("setup_s", plain.setup.Median());
        result.Add("ckpt.stall_s_p50", plain.stall.Median());
        result.Add("ckpt.stall_s_tail", plain.stall.Quantile(kTailQuantile));
        result.Add("restore_s_p50", plain.restore.Median());
        result.Add("loop.steps_per_s",
                   static_cast<double>(plain.iterations) / plain.loop_s);
        result.Add("persist_bytes_per_event",
                   static_cast<double>(plain.store_bytes) /
                       static_cast<double>(plain.events));
        result.Add("peak_rss_mb", PeakRssMb());
        return;
    }

    const auto events = static_cast<double>(traced.events);
    result.Add("nn.train_step_s_p50", traced.train_step.Median());
    result.Add("train.tokens_per_s", static_cast<double>(traced.iterations) *
                                         tokens_per_iteration / traced.loop_s);
    result.Add("train.final_loss", final_loss);
    result.Add("train.ckpt_time_share", traced.ckpt_s / traced.loop_s);
    result.Add("core.record_routing_s_p50", traced.routing.Median());
    result.Add("core.ckpt_persist_bytes",
               static_cast<double>(traced.persist_bytes) / events);
    result.Add("core.ckpt_snapshot_bytes",
               static_cast<double>(traced.snapshot_bytes) / events);
    result.Add("core.recover_s_p50", traced.recover.Median());
    const auto recoveries =
        static_cast<double>(std::max<std::size_t>(1, traced.recoveries));
    result.Add("core.recover_memory_bytes",
               static_cast<double>(traced.recover_memory_bytes) / recoveries);
    result.Add("core.recover_storage_bytes",
               static_cast<double>(traced.recover_storage_bytes) / recoveries);
    AddStorageMetrics(traced.event_io, events,
                      static_cast<double>(traced.persist_bytes), result);
    result.Add("restore.exec_s", traced.restore.Median());
    result.Add("restore.get_calls_per_shard",
               static_cast<double>(traced.restore_io.get.calls) /
                   static_cast<double>(traced.restored_keys));
    result.Add("restore.read_amp",
               static_cast<double>(traced.restore_io.get.bytes) /
                   static_cast<double>(traced.restored_bytes));
    result.Add("obs.trace_overhead_ratio",
               traced.stall.Median() / plain.stall.Median());

    // Probes at the workload's own sizes: SerializeParamList over the
    // model's groups, the other probes at the mean serialized unit size.
    MoeTransformerLm model(ModelConfig(options.seed));
    const std::vector<ParamGroup> groups = model.ParameterGroups();
    std::size_t unit_bytes = 0;
    for (const ParamGroup& group : groups) {
        for (const bool weights : {true, false}) {
            unit_bytes += SerializeParamList(group.params, weights).size();
        }
    }
    ProbeShape shape;
    shape.shard_bytes = unit_bytes / (2 * groups.size());
    shape.chunk_bytes = 64 * 1024;  // engine default; delta is not on this path
    RunProbes(shape, groups, options.dir, result);
}

}  // namespace perfbench

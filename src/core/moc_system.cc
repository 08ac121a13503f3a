#include "core/moc_system.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/expert_stats.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

/** Byte/event counters shared by every checkpoint event (initial included). */
void
RecordCheckpointMetrics(const CheckpointReport& report, Seconds duration) {
    static obs::Counter& events =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.events");
    static obs::Counter& snapshot_bytes =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.snapshot_bytes");
    static obs::Counter& persist_bytes =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.persist_bytes");
    static obs::Histogram& seconds =
        obs::MetricsRegistry::Instance().GetHistogram("ckpt.duration_seconds");
    events.Add();
    snapshot_bytes.Add(report.snapshot_bytes);
    persist_bytes.Add(report.persist_bytes);
    seconds.Observe(duration);
}

/** A CRC-32C fingerprint of the run's MocSystemConfig, as run metadata. */
std::string
ConfigDigest(const MocSystemConfig& config, const ModelSpec& spec) {
    std::ostringstream desc;
    desc << "k_snapshot=" << config.pec.k_snapshot
         << ";k_persist=" << config.pec.k_persist
         << ";pec_w=" << config.pec.pec_on_weights
         << ";pec_o=" << config.pec.pec_on_optimizer
         << ";policy=" << static_cast<int>(config.pec.policy)
         << ";i_ckpt=" << config.i_ckpt
         << ";two_level=" << config.two_level_recovery
         << ";fully_sharded=" << config.fully_sharded
         << ";dynamic_k=" << config.dynamic_k
         << ";plt_threshold=" << config.plt_threshold
         << ";moe_layers=" << spec.NumMoeLayers()
         << ";experts=" << spec.num_experts;
    const std::string s = desc.str();
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", Crc32c(s.data(), s.size()));
    return hex;
}

/** Journal wall-clock pair around one checkpoint or recovery. */
Seconds
NsToSeconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
}

/** ExtraState's fixed encoding: iteration, adam_step, the RNG state. */
constexpr std::size_t kExtraStateBytes =
    2 * sizeof(std::uint64_t) + sizeof(Rng::State::s) + sizeof(std::uint8_t) +
    sizeof(double);

template <typename T>
std::uint8_t*
PackPod(T value, std::uint8_t* out) {
    std::memcpy(out, &value, sizeof(T));
    return out + sizeof(T);
}

template <typename T>
T
ReadPod(const Blob& in, std::size_t& offset) {
    MOC_CHECK_ARG(sizeof(T) <= in.size() - offset, "blob truncated");
    T value;
    std::memcpy(&value, in.data() + offset, sizeof(T));
    offset += sizeof(T);
    return value;
}

/** Parses the length-prefixed tensor at @p offset into @p dst in place. */
void
ReadTensorInto(const Blob& in, std::size_t& offset, Tensor& dst) {
    const auto size = ReadPod<std::uint64_t>(in, offset);
    // offset <= in.size() holds, so this cannot wrap for any length field.
    MOC_CHECK_ARG(size <= in.size() - offset, "blob truncated");
    DeserializeTensorInto(in.data() + offset, size, dst);
    offset += size;
}

bool
Contains(const std::vector<ExpertId>& list, ExpertId e) {
    return std::find(list.begin(), list.end(), e) != list.end();
}

/** Strips a "/w" or "/o" suffix from a store key. */
std::string
BaseKey(const std::string& key) {
    MOC_ASSERT(key.size() > 2, "store key too short");
    return key.substr(0, key.size() - 2);
}

}  // namespace

Blob
SerializeParamList(const std::vector<Parameter*>& params, bool weights) {
    // Size the blob once, then pack every header and payload straight in.
    std::vector<const Tensor*> tensors;
    tensors.reserve(params.size() * (weights ? 1 : 2));
    for (const auto* p : params) {
        if (weights) {
            tensors.push_back(&p->value());
        } else {
            tensors.push_back(&p->adam_m());
            tensors.push_back(&p->adam_v());
        }
    }
    std::size_t total = sizeof(std::uint32_t);
    for (const Tensor* t : tensors) {
        total += sizeof(std::uint64_t) + SerializedTensorSize(*t);
    }
    Blob out(total);
    std::uint8_t* p = PackPod(static_cast<std::uint32_t>(tensors.size()),
                              out.data());
    for (const Tensor* t : tensors) {
        p = PackPod(static_cast<std::uint64_t>(SerializedTensorSize(*t)), p);
        p = SerializeTensorInto(*t, p);
    }
    MOC_ASSERT(p == out.data() + out.size(), "param list size mismatch");
    return out;
}

void
DeserializeParamList(const Blob& blob, const std::vector<Parameter*>& params,
                     bool weights) {
    std::size_t offset = 0;
    const auto count = ReadPod<std::uint32_t>(blob, offset);
    const std::uint32_t expected =
        static_cast<std::uint32_t>(params.size()) * (weights ? 1 : 2);
    MOC_CHECK_ARG(count == expected, "parameter count mismatch in checkpoint blob");
    for (auto* p : params) {
        if (weights) {
            ReadTensorInto(blob, offset, p->value());
        } else {
            ReadTensorInto(blob, offset, p->adam_m());
            ReadTensorInto(blob, offset, p->adam_v());
        }
    }
    MOC_CHECK_ARG(offset == blob.size(), "trailing bytes in checkpoint blob");
}

Blob
SerializeExtraState(const ExtraState& extra) {
    Blob out(kExtraStateBytes);
    std::uint8_t* p = out.data();
    p = PackPod(static_cast<std::uint64_t>(extra.iteration), p);
    p = PackPod(static_cast<std::uint64_t>(extra.adam_step), p);
    for (auto s : extra.gating_rng.s) {
        p = PackPod(s, p);
    }
    p = PackPod(static_cast<std::uint8_t>(extra.gating_rng.have_cached_gaussian), p);
    PackPod(extra.gating_rng.cached_gaussian, p);
    return out;
}

ExtraState
DeserializeExtraState(const Blob& blob) {
    MOC_CHECK_ARG(blob.size() == kExtraStateBytes,
                  "extra state blob is " << blob.size() << " bytes, not "
                                         << kExtraStateBytes);
    ExtraState extra;
    std::size_t offset = 0;
    extra.iteration = static_cast<std::size_t>(ReadPod<std::uint64_t>(blob, offset));
    extra.adam_step = static_cast<std::size_t>(ReadPod<std::uint64_t>(blob, offset));
    for (auto& s : extra.gating_rng.s) {
        s = ReadPod<std::uint64_t>(blob, offset);
    }
    extra.gating_rng.have_cached_gaussian = ReadPod<std::uint8_t>(blob, offset) != 0;
    extra.gating_rng.cached_gaussian = ReadPod<double>(blob, offset);
    return extra;
}

MocCheckpointSystem::MocCheckpointSystem(const MocSystemConfig& config,
                                         ParamSource& model,
                                         const RankTopology& topology,
                                         const ModelSpec& spec,
                                         const ExtraState& initial_extra)
    : config_(config),
      model_(model),
      topology_(topology),
      spec_(spec),
      ledger_(std::max<std::size_t>(1, spec.NumMoeLayers()), spec.num_experts),
      memory_(topology.num_nodes()) {
    MOC_CHECK_ARG(config.i_ckpt >= 1, "i_ckpt must be >= 1");
    MOC_CHECK_ARG(spec.NumMoeLayers() >= 1, "MoC-System requires an MoE model");

    std::unique_ptr<ExpertSelector> selector;
    if (config.pec.policy == SelectionPolicy::kSequential) {
        selector = std::make_unique<SequentialSelector>(spec.num_experts);
    } else {
        selector = std::make_unique<LoadAwareSelector>(
            spec.num_experts, [this](std::size_t m, ExpertId e) {
                // Unsaved updates since this expert's last snapshot.
                const std::size_t last = last_snap_iter_[m][e];
                return ledger_.CumulativeTokens(m, e) -
                       ledger_.CumulativeTokensAt(last, m, e);
            });
    }
    planner_ = std::make_unique<PecPlanner>(spec.NumMoeLayers(), spec.num_experts,
                                            config.pec, std::move(selector));
    if (config.dynamic_k) {
        dynamic_k_ = std::make_unique<DynamicKController>(
            config.pec.k_snapshot, spec.num_experts, config.plt_threshold);
    }
    last_snap_iter_.assign(spec.NumMoeLayers(),
                           std::vector<std::size_t>(spec.num_experts, 0));

    // Static non-expert placement from the sharding planner.
    const StateBytes bytes;
    ModelStateInventory inventory(spec, bytes);
    ShardingOptions options;
    options.equal_expert = config.fully_sharded;
    options.equal_nonexpert = config.fully_sharded;
    ShardingPlanner sharder(inventory, topology, options);
    const ShardPlan plan = sharder.PlanFull();
    for (const auto* module : inventory.NonExpertModules()) {
        if (auto owner = plan.FindWeightOwner(module->key)) {
            nonexpert_rank_[module->key] = *owner;
        }
    }

    MOC_CHECK_ARG(config.persist_generations >= 1,
                  "persist_generations must be >= 1");

    // The resilient persist path: retries + write verification over the
    // configured backend, with read repair from a surviving memory replica
    // (docs/FAULT_MODEL.md). Every persisted key is GenKey(iteration, unit);
    // GetChecked CRC-checks the replica against the damaged version's record.
    persist_ = std::make_unique<ResilientStore>(
        PersistBackend(), config_.retry,
        [this](const std::string& damaged) -> std::optional<Blob> {
            const std::string unit = damaged.substr(damaged.find('/', 4) + 1);
            if (auto mem = manifest_.Latest(StoreLevel::kMemory, unit)) {
                return memory_.Node(mem->node).Get(unit);
            }
            return std::nullopt;
        });
    // The one persist engine, with the training path's layout: dedup and
    // delta off, GenKey names, persist_generations kept.
    PersistPipelineOptions pipe;
    pipe.workers = std::min<std::size_t>(
        4, std::max(1U, std::thread::hardware_concurrency()));
    // Unbounded: the persist set is already serialized in memory when it is
    // submitted, so backpressure would only stall the training thread.
    pipe.queue_capacity = std::numeric_limits<std::size_t>::max();
    pipe.dedup = false;
    pipe.version_key = [](const std::string& key, std::size_t iteration) {
        return GenKey(iteration, key);
    };
    pipe.keep_generations = config_.persist_generations;
    pipeline_ = std::make_unique<PersistPipeline>(*persist_, manifest_,
                                                  nullptr, pipe);

    // Per-expert telemetry + run metadata restart with each bound system.
    obs::ExpertStatsRegistry::Instance().Configure(spec.NumMoeLayers(),
                                                   spec.num_experts);
    obs::SetRunConfigDigest(ConfigDigest(config_, spec_));

    // Initial full checkpoint at iteration 0: recovery is always defined.
    const obs::TraceSpan span("ckpt.initial_checkpoint", "ckpt");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptBegin,
         .k = config_.pec.k_snapshot,
         .detail = "initial full checkpoint"});
    CheckpointReport report;
    std::vector<PersistJob> jobs;
    for (const auto& group : model_.ParameterGroups()) {
        SaveGroup(group, 0, /*weights=*/true, true, true, report, jobs);
        SaveGroup(group, 0, /*weights=*/false, true, true, report, jobs);
    }
    jobs.push_back(ExtraStateJob(initial_extra));
    manifest_.MarkCheckpointComplete(StoreLevel::kMemory, 0);
    PersistGeneration(jobs, 0);
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptEnd,
         .bytes = report.snapshot_bytes + report.persist_bytes,
         .plt = 0.0,
         .k = config_.pec.k_snapshot,
         .detail = "initial full checkpoint"});
    RecordCheckpointMetrics(report, NsToSeconds(begin_ns, obs::Tracer::NowNs()));
}

std::string
MocCheckpointSystem::GenKey(std::size_t iteration, const std::string& key) {
    return "gen/" + std::to_string(iteration) + "/" + key;
}

MocCheckpointSystem::PersistJob
MocCheckpointSystem::ExtraStateJob(const ExtraState& extra) {
    Blob blob = SerializeExtraState(extra);
    const std::uint32_t crc = Crc32c(blob.data(), blob.size());
    return {"extra/state", std::move(blob), crc, /*unit=*/false, std::nullopt};
}

ObjectStore&
MocCheckpointSystem::PersistBackend() {
    return config_.persist_backend != nullptr ? *config_.persist_backend
                                              : storage_;
}

void
MocCheckpointSystem::PersistGeneration(std::vector<PersistJob>& jobs,
                                       std::size_t iteration) {
    // Each job runs the full resilient Put (write, fsync, rename, read-back
    // verify) on a pipeline worker under this event's trace context.
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    pipeline_->BeginGeneration(iteration);
    for (PersistJob& job : jobs) {
        pipeline_->Submit(job.key, std::move(job.blob), iteration, nullptr, ctx,
                          job.crc);
    }
    pipeline_->FinishGeneration();
    // Read the outcomes from the manifest in plan order: the journal, the
    // stats and a thrown failure stay deterministic.
    auto& journal = obs::EventJournal::Instance();
    for (const PersistJob& job : jobs) {
        const auto version = manifest_.FindPersistVersion(job.key, iteration);
        MOC_ASSERT(version.has_value(), "pipeline recorded no version of "
                                            << job.key);
        if (!version->verified) {
            // The initial checkpoint must land: every later recovery
            // bottoms out on generation 0.
            if (iteration == 0) {
                throw StoreError(StoreErrorKind::kTimeout, GenKey(0, job.key),
                                 "initial checkpoint persist failed");
            }
            static obs::Counter& failures =
                obs::MetricsRegistry::Instance().GetCounter(
                    "ckpt.persist_shard_failures");
            failures.Add();
        }
        if (!job.unit) {
            continue;
        }
        journal.Append({.kind = obs::EventKind::kPersist,
                        .iteration = iteration,
                        .bytes = version->bytes,
                        .detail = job.key});
        if (job.expert.has_value()) {
            obs::ExpertStatsRegistry::Instance().OnPersist(
                job.expert->first, job.expert->second, iteration,
                version->bytes);
        }
    }
}

std::optional<Blob>
MocCheckpointSystem::ReadPersistVersion(const std::string& key,
                                        const PersistVersion& version) const {
    try {
        return persist_->GetChecked(GenKey(version.iteration, key), version.crc);
    } catch (const StoreError&) {
        return std::nullopt;  // damaged beyond repair or retry-exhausted
    }
}

std::vector<NodeId>
MocCheckpointSystem::ExpertOwnerNodes(ExpertId expert) const {
    const std::size_t owner = topology_.OwnerEpRank(expert, spec_.num_experts);
    std::vector<NodeId> nodes;
    for (std::size_t g = 0; g < topology_.NumEpGroups(); ++g) {
        const NodeId node = topology_.NodeOf(topology_.RankOf(g, owner));
        if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
            nodes.push_back(node);
        }
    }
    return nodes;
}

NodeId
MocCheckpointSystem::NonExpertOwnerNode(const std::string& key) const {
    auto it = nonexpert_rank_.find(key);
    const RankId rank = it == nonexpert_rank_.end() ? 0 : it->second;
    return topology_.NodeOf(rank);
}

void
MocCheckpointSystem::SaveGroup(const ParamGroup& group, std::size_t iteration,
                               bool weights, bool to_memory, bool to_persist,
                               CheckpointReport& report,
                               std::vector<PersistJob>& persist) {
    if (!to_memory && !to_persist) {
        return;
    }
    Blob blob = SerializeParamList(group.params, weights);
    const std::string key = group.key + (weights ? "/w" : "/o");
    const Bytes size = blob.size();
    // The one CRC-32C of these bytes: it guards the memory replicas on
    // recovery and is the persisted version's manifest record.
    const std::uint32_t crc = Crc32c(blob.data(), blob.size());

    std::vector<NodeId> nodes;
    if (group.kind == ModuleKind::kExpert) {
        nodes = ExpertOwnerNodes(group.expert);
    } else {
        nodes = {NonExpertOwnerNode(group.key)};
    }
    auto& journal = obs::EventJournal::Instance();
    auto& expert_stats = obs::ExpertStatsRegistry::Instance();
    if (to_memory) {
        for (NodeId node : nodes) {
            memory_.Node(node).Put(key, blob);
            manifest_.RecordSave(StoreLevel::kMemory, key, iteration, node, size,
                                 crc);
            report.snapshot_bytes += size;
            journal.Append({.kind = obs::EventKind::kSnapshot,
                            .iteration = iteration,
                            .scope = static_cast<std::int64_t>(node),
                            .bytes = size,
                            .detail = key});
        }
        if (group.kind == ModuleKind::kExpert) {
            expert_stats.OnSnapshot(group.moe_index, group.expert, iteration,
                                    size * nodes.size());
        }
    }
    if (to_persist) {
        report.persist_bytes += size;
        std::optional<std::pair<std::size_t, ExpertId>> expert;
        if (group.kind == ModuleKind::kExpert) {
            expert = {group.moe_index, group.expert};
        }
        persist.push_back({key, std::move(blob), crc, /*unit=*/true, expert});
    }
}

bool
MocCheckpointSystem::ShouldCheckpoint(std::size_t iteration) const {
    return iteration > 0 && iteration % config_.i_ckpt == 0;
}

CheckpointReport
MocCheckpointSystem::Checkpoint(std::size_t iteration, const ExtraState& extra) {
    obs::TraceContext trace_ctx;
    trace_ctx.generation = iteration;
    trace_ctx.iteration = iteration;
    trace_ctx.phase = "ckpt";
    const obs::TraceContextScope trace_scope(trace_ctx);
    const obs::TraceSpan span("ckpt.checkpoint", "ckpt");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    obs::ExpertStatsRegistry::Instance().SetIteration(iteration);
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptBegin,
         .iteration = iteration,
         .k = planner_->config().k_snapshot,
         .detail = {}});
    const PecSelection selection = planner_->Plan(ckpt_count_);
    CheckpointReport report;
    report.iteration = iteration;
    const PecConfig& pec = planner_->config();

    std::vector<PersistJob> jobs;
    for (const auto& group : model_.ParameterGroups()) {
        if (group.kind != ModuleKind::kExpert) {
            SaveGroup(group, iteration, true, true, true, report, jobs);
            SaveGroup(group, iteration, false, true, true, report, jobs);
            continue;
        }
        const std::size_t m = group.moe_index;
        const ExpertId e = group.expert;
        const bool in_snap = Contains(selection.snapshot[m], e);
        const bool in_pers = Contains(selection.persist[m], e);
        const bool snap_w = !pec.pec_on_weights || in_snap;
        const bool pers_w = !pec.pec_on_weights || in_pers;
        const bool snap_o = !pec.pec_on_optimizer || in_snap;
        const bool pers_o = !pec.pec_on_optimizer || in_pers;
        SaveGroup(group, iteration, true, snap_w, pers_w, report, jobs);
        SaveGroup(group, iteration, false, snap_o, pers_o, report, jobs);
        if (snap_w || snap_o) {
            last_snap_iter_[m][e] = iteration;
        }
    }

    jobs.push_back(ExtraStateJob(extra));
    manifest_.MarkCheckpointComplete(StoreLevel::kMemory, iteration);
    PersistGeneration(jobs, iteration);
    ledger_.RecordCheckpointEvent(iteration);
    ++ckpt_count_;
    // The live time-series ring (obs/timeseries.h) reads this gauge each
    // iteration; recovery.plt only updates on an actual recovery.
    static obs::Gauge& plt_gauge =
        obs::MetricsRegistry::Instance().GetGauge("ckpt.plt");
    plt_gauge.Set(ledger_.Plt());
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptEnd,
         .iteration = iteration,
         .bytes = report.snapshot_bytes + report.persist_bytes,
         .plt = ledger_.Plt(),
         .k = planner_->config().k_snapshot,
         .detail = {}});
    RecordCheckpointMetrics(report, NsToSeconds(begin_ns, obs::Tracer::NowNs()));
    return report;
}

void
MocCheckpointSystem::RecordRouting(const std::vector<MoeLayer*>& layers) {
    MOC_CHECK_ARG(layers.size() == ledger_.num_moe_layers(),
                  "MoE layer count mismatch");
    for (std::size_t m = 0; m < layers.size(); ++m) {
        const RoutingStats& stats = layers[m]->last_stats();
        ledger_.RecordRouting(m, stats.tokens_per_expert, stats.assignments);
    }
}

RecoveryReport
MocCheckpointSystem::RecoverFromFault(const std::vector<NodeId>& failed_nodes) {
    obs::TraceContext trace_ctx;
    trace_ctx.phase = "recover";
    const obs::TraceContextScope trace_scope(trace_ctx);
    const obs::TraceSpan span("ckpt.recover", "fault");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    auto& journal = obs::EventJournal::Instance();
    // The trainer advances the expert-stats iteration every step, so it is
    // the best available "iteration at fault time" stamp.
    const std::uint64_t fault_iteration =
        obs::ExpertStatsRegistry::Instance().iteration();
    {
        std::ostringstream nodes;
        for (std::size_t i = 0; i < failed_nodes.size(); ++i) {
            nodes << (i == 0 ? "nodes=" : ",") << failed_nodes[i];
        }
        journal.Append({.kind = obs::EventKind::kFault,
                        .iteration = fault_iteration,
                        .scope = failed_nodes.empty()
                                     ? obs::kGlobalScope
                                     : static_cast<std::int64_t>(
                                           failed_nodes.front()),
                        .detail = nodes.str()});
    }
    journal.Append({.kind = obs::EventKind::kRecoveryBegin,
                    .iteration = fault_iteration,
                    .detail = {}});
    for (NodeId node : failed_nodes) {
        memory_.FailNode(node);
        manifest_.DropNodeMemory(node);
    }

    // Collect the non-expert store keys from the model's groups.
    auto groups = model_.ParameterGroups();
    std::map<std::string, const ParamGroup*> by_key;
    std::vector<std::string> nonexpert_keys;
    for (const auto& group : groups) {
        by_key[group.key] = &group;
        if (group.kind != ModuleKind::kExpert) {
            nonexpert_keys.push_back(group.key + "/w");
            nonexpert_keys.push_back(group.key + "/o");
        }
    }

    TwoLevelRecoveryPlanner recovery_planner(config_.two_level_recovery);
    RecoveryReport report;
    static obs::Counter& degraded_counter =
        obs::MetricsRegistry::Instance().GetCounter("recovery.degraded_keys");
    static obs::Counter& fallback_counter =
        obs::MetricsRegistry::Instance().GetCounter(
            "recovery.generation_fallbacks");

    // Restart candidates: verified generations newest-first, then sealed
    // generations with shards later marked corrupt as last resorts (the
    // strict per-key checks below still hold, so they either restore
    // consistently or get marked corrupt); for legacy manifests with no
    // generation records at all, the last completed checkpoint.
    std::vector<std::size_t> candidates = manifest_.EligibleGenerations();
    std::vector<std::size_t> last_resort;
    for (const auto& info : manifest_.Generations()) {
        if (info.sealed && !info.marked_corrupt && !info.eligible) {
            last_resort.push_back(info.iteration);
        }
    }
    candidates.insert(candidates.end(), last_resort.rbegin(),
                      last_resort.rend());
    if (candidates.empty()) {
        candidates.push_back(
            manifest_.LastCompleteIteration(StoreLevel::kPersist).value_or(0));
    }

    bool restored = false;
    std::map<std::string, std::size_t> restored_iteration;
    for (std::size_t ci = 0; ci < candidates.size() && !restored; ++ci) {
        const std::size_t restart = candidates[ci];
        report.plan = recovery_planner.Plan(manifest_, nonexpert_keys,
                                            ledger_.num_moe_layers(),
                                            ledger_.num_experts(), restart);
        report.degraded.clear();
        restored_iteration.clear();
        bool generation_ok = true;
        for (const auto& decision : report.plan.decisions) {
            if (decision.source == RecoverySource::kInitial) {
                throw StoreError(StoreErrorKind::kCorrupt, decision.key,
                                 "no recoverable version survives; even the "
                                 "initial checkpoint is damaged");
            }
            const bool weights = decision.key.back() == 'w';
            const auto group_it = by_key.find(BaseKey(decision.key));
            MOC_CHECK_ARG(group_it != by_key.end(),
                          "checkpointed key has no model group: " << decision.key);
            const bool is_expert = group_it->second->kind == ModuleKind::kExpert;
            std::optional<Blob> blob;
            std::size_t got_iteration = decision.iteration;
            bool replica_refused = false;
            if (decision.source == RecoverySource::kMemory) {
                const auto version =
                    manifest_.Latest(StoreLevel::kMemory, decision.key);
                MOC_ASSERT(version.has_value(), "manifest/plan disagreement");
                blob = memory_.Node(version->node).Get(decision.key);
                MOC_ASSERT(blob.has_value(), "memory lost a manifest-tracked "
                                             "key: " << decision.key);
                if (Crc32c(blob->data(), blob->size()) != version->crc) {
                    // A damaged replica is never deserialized: storage
                    // serves this key instead.
                    MOC_WARN << "recover: memory replica of " << decision.key
                             << " on node " << version->node
                             << " fails its CRC; reading storage";
                    blob.reset();
                    replica_refused = true;
                }
            }
            if (!blob.has_value()) {
                // Walk the verified-version fallback chain; every damaged
                // version is marked so later recoveries skip it.
                for (const auto& version :
                     manifest_.PersistFallbackChain(decision.key, restart)) {
                    blob = ReadPersistVersion(decision.key, version);
                    if (blob.has_value()) {
                        got_iteration = version.iteration;
                        break;
                    }
                    manifest_.MarkPersistCorrupt(decision.key,
                                                 version.iteration);
                    journal.Append(
                        {.kind = obs::EventKind::kStorageFault,
                         .iteration = version.iteration,
                         .bytes = version.bytes,
                         .detail = "corrupt shard " + decision.key + " @" +
                                   std::to_string(version.iteration)});
                }
                if (!blob.has_value() && is_expert) {
                    throw StoreError(StoreErrorKind::kCorrupt, decision.key,
                                     "every persisted version of this unit is "
                                     "corrupt and no memory replica survives");
                }
                if (!blob.has_value() ||
                    (!is_expert && got_iteration != restart)) {
                    // A non-expert unit must restore the restart generation
                    // exactly (the plan itself may already point at an older
                    // version when the restart shard never verified); this
                    // generation is unusable.
                    generation_ok = false;
                    break;
                }
                if (got_iteration != decision.iteration) {
                    degraded_counter.Add();
                    report.degraded.push_back(
                        {decision.key, decision.iteration, got_iteration,
                         replica_refused
                             ? "corrupt memory replica; restored older "
                               "persisted version"
                             : "corrupt shard; restored older verified "
                               "version"});
                    journal.Append(
                        {.kind = obs::EventKind::kDegradedRecovery,
                         .iteration = got_iteration,
                         .detail = "key=" + decision.key + ";planned=" +
                                   std::to_string(decision.iteration) +
                                   ";restored=" +
                                   std::to_string(got_iteration) +
                                   (replica_refused
                                        ? ";reason=corrupt_memory_replica"
                                        : ";reason=corrupt_shard")});
                }
            }
            DeserializeParamList(*blob, group_it->second->params, weights);
            restored_iteration[decision.key] = got_iteration;
        }
        if (generation_ok) {
            // Other crucial states must come from the restart generation.
            const auto extra_chain =
                manifest_.PersistFallbackChain("extra/state", restart);
            std::optional<Blob> extra_blob;
            if (!extra_chain.empty() &&
                extra_chain.front().iteration == restart) {
                extra_blob =
                    ReadPersistVersion("extra/state", extra_chain.front());
                if (!extra_blob.has_value()) {
                    manifest_.MarkPersistCorrupt("extra/state", restart);
                }
            }
            if (extra_blob.has_value()) {
                report.extra = DeserializeExtraState(*extra_blob);
                restored = true;
            } else {
                generation_ok = false;
            }
        }
        if (!generation_ok) {
            manifest_.MarkGenerationCorrupt(restart);
            fallback_counter.Add();
            ++report.generation_fallbacks;
            journal.Append(
                {.kind = obs::EventKind::kDegradedRecovery,
                 .iteration = restart,
                 .detail = "generation " + std::to_string(restart) +
                           " unusable; falling back to an older one"});
        }
    }
    if (!restored) {
        WriteManifest(*persist_, manifest_);  // record what recovery learned
        throw StoreError(StoreErrorKind::kCorrupt, kManifestKey,
                         "no restartable checkpoint generation survives");
    }
    MOC_ASSERT(report.extra.iteration == report.plan.restart_iteration,
               "extra state iteration disagrees with the restart point");

    // The effective expert age is what was actually restored, which may be
    // older than planned when shards fell back.
    for (std::size_t m = 0; m < ledger_.num_moe_layers(); ++m) {
        for (ExpertId e = 0; e < ledger_.num_experts(); ++e) {
            const std::string base =
                "moe/" + std::to_string(m) + "/expert/" + std::to_string(e);
            const auto w = restored_iteration.find(base + "/w");
            const auto o = restored_iteration.find(base + "/o");
            if (w != restored_iteration.end() &&
                o != restored_iteration.end()) {
                report.plan.expert_recovered_iteration[m][e] =
                    std::min(w->second, o->second);
            }
        }
    }
    WriteManifest(*persist_, manifest_);

    ledger_.OnFaultRecovery(report.plan.restart_iteration,
                            report.plan.expert_recovered_iteration);
    // Snapshot bookkeeping cannot reference erased (replayed) history.
    for (auto& layer : last_snap_iter_) {
        for (auto& it : layer) {
            it = std::min(it, report.plan.restart_iteration);
        }
    }

    for (NodeId node : failed_nodes) {
        memory_.RestartNode(node);
    }

    report.plt = ledger_.Plt();
    const std::size_t k_before = planner_->config().k_snapshot;
    if (dynamic_k_ != nullptr) {
        // Scale both levels proportionally: recovery staleness is bounded by
        // the persist rotation, so K_persist must grow with K_pec.
        const std::size_t k = dynamic_k_->OnFaultRecovery(report.plt);
        const std::size_t persist = std::max<std::size_t>(
            1, k * config_.pec.k_persist / config_.pec.k_snapshot);
        planner_->SetK(k, std::min(k, persist));
    }
    report.k_after = planner_->config().k_snapshot;

    // Per-expert attribution: clamp staleness bookkeeping to the restart
    // point and refresh each cell's lost-token total from the ledger.
    auto& expert_stats = obs::ExpertStatsRegistry::Instance();
    expert_stats.OnRecovery(report.plan.restart_iteration);
    for (std::size_t m = 0; m < ledger_.num_moe_layers(); ++m) {
        for (ExpertId e = 0; e < ledger_.num_experts(); ++e) {
            expert_stats.SetLostTokens(m, e, ledger_.LostTokens(m, e));
        }
    }

    journal.Append({.kind = obs::EventKind::kRecoveryEnd,
                    .iteration = report.plan.restart_iteration,
                    .bytes = report.plan.bytes_from_memory +
                             report.plan.bytes_from_storage,
                    .plt = report.plt,
                    .k = report.k_after,
                    .detail = {}});
    if (report.k_after != k_before) {
        journal.Append({.kind = obs::EventKind::kDynamicKBump,
                        .iteration = report.plan.restart_iteration,
                        .plt = report.plt,
                        .k = report.k_after,
                        .detail = {}});
    }

    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& events = registry.GetCounter("recovery.events");
    static obs::Counter& memory_bytes =
        registry.GetCounter("recovery.bytes_from_memory");
    static obs::Counter& storage_bytes =
        registry.GetCounter("recovery.bytes_from_storage");
    static obs::Counter& transitions = registry.GetCounter("dynk.transitions");
    static obs::Gauge& plt_gauge = registry.GetGauge("recovery.plt");
    static obs::Gauge& k_gauge = registry.GetGauge("dynk.k_snapshot");
    static obs::Histogram& seconds =
        registry.GetHistogram("recovery.duration_seconds");
    events.Add();
    memory_bytes.Add(report.plan.bytes_from_memory);
    storage_bytes.Add(report.plan.bytes_from_storage);
    if (report.k_after != k_before) {
        transitions.Add();
    }
    plt_gauge.Set(report.plt);
    k_gauge.Set(static_cast<double>(report.k_after));
    seconds.Observe(NsToSeconds(begin_ns, obs::Tracer::NowNs()));
    return report;
}

}  // namespace moc

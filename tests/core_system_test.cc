/**
 * @file
 * Unit tests for the MocCheckpointSystem facade, the two-level recovery
 * planner, the adaptive configurator, and the overhead model.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/adaptive.h"
#include "core/moc_system.h"
#include "core/overhead.h"
#include "nn/model.h"
#include "obs/journal.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"

namespace moc {
namespace {

LmConfig
TinyLm() {
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    cfg.top_k = 1;
    cfg.seed = 77;
    return cfg;
}

MocSystemConfig
DefaultSystem(std::size_t k_snapshot = 2, std::size_t k_persist = 1) {
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = k_snapshot;
    cfg.pec.k_persist = k_persist;
    cfg.i_ckpt = 4;
    return cfg;
}

RankTopology
TwoNodeTopology() {
    // dp = ep = 4 ranks over 2 nodes.
    return RankTopology({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
}

/** Snapshot of all weight values for later comparison. */
std::vector<Tensor>
SnapshotWeights(ParamSource& model) {
    std::vector<Tensor> out;
    for (auto* p : model.AllParameters()) {
        out.push_back(p->value());
    }
    return out;
}

void
PerturbWeights(ParamSource& model, float delta) {
    for (auto* p : model.AllParameters()) {
        for (std::size_t i = 0; i < p->size(); ++i) {
            p->value()[i] += delta;
        }
    }
}

TEST(MocSystem, InitialCheckpointWrittenAtConstruction) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(), model, topo,
                               TinyLm().ToModelSpec(), extra);
    EXPECT_GT(system.storage().Count(), 0U);
    EXPECT_EQ(system.manifest().LastCompleteIteration(StoreLevel::kPersist).value(),
              0U);
}

TEST(MocSystem, ShouldCheckpointRespectsInterval) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(), model, topo,
                               TinyLm().ToModelSpec(), extra);
    EXPECT_FALSE(system.ShouldCheckpoint(0));
    EXPECT_FALSE(system.ShouldCheckpoint(3));
    EXPECT_TRUE(system.ShouldCheckpoint(4));
    EXPECT_TRUE(system.ShouldCheckpoint(8));
}

TEST(MocSystem, PecCheckpointSmallerThanFull) {
    MoeTransformerLm model_pec(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model_pec.gating_rng().GetState()};
    MocCheckpointSystem pec(DefaultSystem(1, 1), model_pec, topo,
                            TinyLm().ToModelSpec(), extra);
    const auto pec_report = pec.Checkpoint(4, extra);

    MoeTransformerLm model_full(TinyLm());
    MocCheckpointSystem full(DefaultSystem(4, 4), model_full, topo,
                             TinyLm().ToModelSpec(), extra);
    const auto full_report = full.Checkpoint(4, extra);

    EXPECT_LT(pec_report.persist_bytes, full_report.persist_bytes);
    EXPECT_LT(pec_report.snapshot_bytes, full_report.snapshot_bytes);
}

TEST(MocSystem, RecoveryRestoresExactWeightsWithFullCheckpoint) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(4, 4), model, topo,
                               TinyLm().ToModelSpec(), extra);
    // Checkpoint the current state at iteration 4.
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    const auto before = SnapshotWeights(model);
    // Corrupt everything, then recover.
    PerturbWeights(model, 1.0F);
    const auto report = system.RecoverFromFault({0});
    EXPECT_EQ(report.plan.restart_iteration, 4U);
    const auto params = model.AllParameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(params[i]->value().AllClose(before[i], 0.0F))
            << params[i]->name();
    }
    EXPECT_EQ(report.extra.iteration, 4U);
    EXPECT_DOUBLE_EQ(report.plt, 0.0);
}

TEST(MocSystem, PecRecoveryLeavesUnsavedExpertsStale) {
    // With K = 1 persist-PEC and no two-level recovery, experts not in the
    // persisted set recover to their iteration-0 state.
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    MocSystemConfig cfg = DefaultSystem(1, 1);
    cfg.two_level_recovery = false;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);

    const auto initial = SnapshotWeights(model);
    PerturbWeights(model, 0.5F);  // pretend training moved all weights
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    PerturbWeights(model, 0.5F);
    system.RecoverFromFault({0});

    // Non-expert groups must be at the iteration-4 (perturbed once) state;
    // most experts must be back at iteration 0 (initial) values.
    std::size_t stale_experts = 0;
    std::size_t fresh_experts = 0;
    std::size_t param_cursor = 0;
    // Walk params in group order, tracking the flat index used by
    // SnapshotWeights (AllParameters iterates groups in order).
    for (auto& g : model.ParameterGroups()) {
        for (auto* p : g.params) {
            const Tensor& init = initial[param_cursor];
            ++param_cursor;
            if (g.kind != ModuleKind::kExpert) {
                // Saved at iteration 4: exactly one perturbation applied.
                EXPECT_NEAR(p->value()[0], init[0] + 0.5F, 1e-4F) << p->name();
            } else {
                if (std::fabs(p->value()[0] - init[0]) < 1e-6F) {
                    ++stale_experts;
                } else {
                    EXPECT_NEAR(p->value()[0], init[0] + 0.5F, 1e-4F);
                    ++fresh_experts;
                }
            }
        }
    }
    EXPECT_GT(stale_experts, 0U);
    EXPECT_GT(fresh_experts, 0U);
}

TEST(MocSystem, TwoLevelRecoveryReducesStaleness) {
    // Same scenario, but snapshots carry K=4 (all) while persist carries 1.
    // Failing one node: the surviving node's in-memory snapshots recover its
    // experts at the checkpoint iteration, so fewer experts are stale.
    auto run = [](bool two_level) {
        MoeTransformerLm model(TinyLm());
        const auto topo = TwoNodeTopology();
        MocSystemConfig cfg = DefaultSystem(4, 1);
        cfg.two_level_recovery = two_level;
        ExtraState extra{0, 0, model.gating_rng().GetState()};
        MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(),
                                   extra);
        PerturbWeights(model, 0.5F);
        extra.iteration = 4;
        system.Checkpoint(4, extra);
        PerturbWeights(model, 0.5F);
        const auto report = system.RecoverFromFault({0});
        Bytes from_memory = report.plan.bytes_from_memory;
        std::size_t stale = 0;
        for (const auto& layer : report.plan.expert_recovered_iteration) {
            for (auto it : layer) {
                if (it < 4) {
                    ++stale;
                }
            }
        }
        return std::make_pair(stale, from_memory);
    };
    const auto [stale_2l, mem_2l] = run(true);
    const auto [stale_flat, mem_flat] = run(false);
    EXPECT_LT(stale_2l, stale_flat);
    EXPECT_GT(mem_2l, 0U);
    EXPECT_EQ(mem_flat, 0U);
}

TEST(MocSystem, ExtraStateRoundTrips) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(), model, topo,
                               TinyLm().ToModelSpec(), extra);
    model.gating_rng().Next();
    ExtraState later{8, 42, model.gating_rng().GetState()};
    system.Checkpoint(8, later);
    const auto report = system.RecoverFromFault({1});
    EXPECT_EQ(report.extra.iteration, 8U);
    EXPECT_EQ(report.extra.adam_step, 42U);
    Rng restored(0);
    restored.SetState(report.extra.gating_rng);
    Rng original(0);
    original.SetState(later.gating_rng);
    EXPECT_EQ(restored.Next(), original.Next());
}

TEST(MocSystem, DynamicKEscalates) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    MocSystemConfig cfg = DefaultSystem(1, 1);
    cfg.dynamic_k = true;
    cfg.two_level_recovery = false;
    cfg.plt_threshold = 1e-6;  // minuscule budget: escalate immediately
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);
    // Create routing traffic so recovery produces PLT > 0.
    std::vector<std::size_t> per_expert(4, 10);
    for (std::size_t m = 0; m < system.ledger().num_moe_layers(); ++m) {
        system.ledger().RecordRouting(m, per_expert, 40);
    }
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    for (std::size_t m = 0; m < system.ledger().num_moe_layers(); ++m) {
        system.ledger().RecordRouting(m, per_expert, 40);
    }
    extra.iteration = 8;
    system.Checkpoint(8, extra);
    const auto report = system.RecoverFromFault({0});
    EXPECT_GT(report.plt, 0.0);
    EXPECT_GT(report.k_after, 1U);
    EXPECT_EQ(system.current_k_snapshot(), report.k_after);
}

TEST(MocSystem, CheckpointStoresOneCopyPerPersistedUnit) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(2, 1), model, topo,
                               TinyLm().ToModelSpec(), extra);
    extra.iteration = 4;
    const CheckpointReport report = system.Checkpoint(4, extra);

    // Every manifest-recorded version has exactly one blob, under its
    // generation key; the only other key is the manifest itself.
    std::map<std::size_t, std::size_t> versions;
    Bytes unit_bytes_at_4 = 0;
    for (const auto& unit : system.manifest().KeysAt(StoreLevel::kPersist)) {
        for (const std::size_t iteration : {0, 4}) {
            const auto version =
                system.manifest().FindPersistVersion(unit, iteration);
            if (!version.has_value()) {
                continue;
            }
            EXPECT_TRUE(version->verified) << unit << " @" << iteration;
            const auto blob = system.storage().Get(
                MocCheckpointSystem::GenKey(iteration, unit));
            ASSERT_TRUE(blob.has_value()) << unit << " @" << iteration;
            EXPECT_EQ(blob->size(), version->bytes);
            EXPECT_FALSE(system.storage().Contains(unit)) << unit;
            ++versions[iteration];
            if (iteration == 4 && unit != "extra/state") {
                unit_bytes_at_4 += version->bytes;
            }
        }
    }
    // Generation 0 holds every unit (weights + moments per group) plus the
    // extra state; generation 4 holds the PEC selection plus extra state.
    EXPECT_EQ(versions[0], 2 * model.ParameterGroups().size() + 1);
    EXPECT_LT(versions[4], versions[0]);
    EXPECT_EQ(unit_bytes_at_4, report.persist_bytes);
    EXPECT_EQ(system.storage().Count(), versions[0] + versions[4] + 1);
    EXPECT_TRUE(system.storage().Contains("meta/manifest"));
}

/** An in-memory store whose Puts of one key always fail loudly. */
class FailingKeyStore final : public ObjectStore {
  public:
    explicit FailingKeyStore(std::string key) : key_(std::move(key)) {}

    void Put(const std::string& key, Blob blob) override {
        if (key == key_) {
            throw StoreError(StoreErrorKind::kTransient, key,
                             "injected put failure");
        }
        base_.Put(key, std::move(blob));
    }
    std::optional<Blob> Get(const std::string& key) const override {
        return base_.Get(key);
    }
    bool Contains(const std::string& key) const override {
        return base_.Contains(key);
    }
    void Erase(const std::string& key) override { base_.Erase(key); }
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

  private:
    const std::string key_;
    MemoryStore base_;
};

TEST(MocSystem, FailedParallelPersistLeavesOnlyThatVersionUnverified) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    FailingKeyStore store(MocCheckpointSystem::GenKey(8, "embedding/w"));
    MocSystemConfig cfg = DefaultSystem(4, 4);
    cfg.persist_backend = &store;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);
    for (const std::size_t iteration : {4, 8}) {
        extra.iteration = iteration;
        system.Checkpoint(iteration, extra);
    }

    const CheckpointManifest& manifest = system.manifest();
    std::size_t verified_at_8 = 0;
    for (const auto& unit : manifest.KeysAt(StoreLevel::kPersist)) {
        const auto version = manifest.FindPersistVersion(unit, 8);
        ASSERT_TRUE(version.has_value()) << unit;
        if (unit == "embedding/w") {
            EXPECT_FALSE(version->verified);
        } else {
            EXPECT_TRUE(version->verified) << unit;
            ++verified_at_8;
        }
    }
    EXPECT_EQ(verified_at_8, manifest.KeysAt(StoreLevel::kPersist).size() - 1);
    for (const auto& info : manifest.Generations()) {
        EXPECT_EQ(info.sealed, info.iteration != 8) << info.iteration;
        EXPECT_EQ(info.eligible, info.iteration != 8) << info.iteration;
    }

    // Recovery restarts from the previous generation.
    const RecoveryReport report = system.RecoverFromFault({0});
    EXPECT_EQ(report.plan.restart_iteration, 4U);
    EXPECT_EQ(report.extra.iteration, 4U);
}

/** (iteration, bytes, key) of every kPersist record one short run journals. */
std::vector<std::tuple<std::uint64_t, std::uint64_t, std::string>>
PersistJournal() {
    auto& journal = obs::EventJournal::Instance();
    const std::size_t before = journal.Collect().size();
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(2, 1), model, topo,
                               TinyLm().ToModelSpec(), extra);
    for (const std::size_t iteration : {4, 8, 12}) {
        extra.iteration = iteration;
        system.Checkpoint(iteration, extra);
    }
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::string>> out;
    const auto events = journal.Collect();
    for (std::size_t i = before; i < events.size(); ++i) {
        if (events[i].kind == obs::EventKind::kPersist) {
            out.emplace_back(events[i].iteration, events[i].bytes,
                             events[i].detail);
        }
    }
    return out;
}

TEST(MocSystem, JournalPersistSequenceIsDeterministic) {
    const auto first = PersistJournal();
    const auto second = PersistJournal();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** Flips the last byte (tensor payload) of @p key's replica on @p node. */
void
FlipMemoryReplica(MocCheckpointSystem& system, NodeId node,
                  const std::string& key) {
    auto blob = system.memory().Node(node).Get(key);
    ASSERT_TRUE(blob.has_value()) << key;
    blob->back() ^= 0x01;
    system.memory().Node(node).Put(key, std::move(*blob));
}

const RecoveryDecision*
FindDecision(const RecoveryReport& report, const std::string& key) {
    for (const auto& decision : report.plan.decisions) {
        if (decision.key == key) {
            return &decision;
        }
    }
    return nullptr;
}

TEST(MocSystem, FlippedMemoryReplicaIsRefusedAndReadFromStorage) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(DefaultSystem(4, 4), model, topo,
                               TinyLm().ToModelSpec(), extra);
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    const auto before = SnapshotWeights(model);

    // A unit whose replica lives on the node that survives the fault.
    std::string victim;
    NodeId holder = 0;
    for (const auto& group : model.ParameterGroups()) {
        const auto mem = system.manifest().Latest(StoreLevel::kMemory,
                                                  group.key + "/w");
        if (mem.has_value() && mem->node != 0) {
            victim = group.key + "/w";
            holder = mem->node;
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    FlipMemoryReplica(system, holder, victim);

    PerturbWeights(model, 1.0F);
    const RecoveryReport report = system.RecoverFromFault({0});
    const RecoveryDecision* decision = FindDecision(report, victim);
    ASSERT_NE(decision, nullptr);
    EXPECT_EQ(decision->source, RecoverySource::kMemory);
    // The flipped bytes never reached the model: storage held the same
    // iteration, so the restore is exact and nothing degraded.
    const auto params = model.AllParameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(params[i]->value().AllClose(before[i], 0.0F))
            << params[i]->name();
    }
    EXPECT_TRUE(report.degraded.empty());
}

TEST(MocSystem, RefusedReplicaNewerThanStorageDegrades) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    // K_snapshot 4, K_persist 1: most experts are in memory at iteration 4
    // but persisted only at 0.
    MocCheckpointSystem system(DefaultSystem(4, 1), model, topo,
                               TinyLm().ToModelSpec(), extra);
    extra.iteration = 4;
    system.Checkpoint(4, extra);

    std::string victim;
    NodeId holder = 0;
    for (const auto& group : model.ParameterGroups()) {
        if (group.kind != ModuleKind::kExpert) {
            continue;
        }
        const std::string key = group.key + "/w";
        const auto mem = system.manifest().Latest(StoreLevel::kMemory, key);
        const auto chain = system.manifest().PersistFallbackChain(key, 4);
        if (mem.has_value() && mem->node != 0 && mem->iteration == 4 &&
            !chain.empty() && chain.front().iteration == 0) {
            victim = key;
            holder = mem->node;
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    FlipMemoryReplica(system, holder, victim);

    const RecoveryReport report = system.RecoverFromFault({0});
    ASSERT_EQ(report.degraded.size(), 1U);
    EXPECT_EQ(report.degraded[0].key, victim);
    EXPECT_EQ(report.degraded[0].planned_iteration, 4U);
    EXPECT_EQ(report.degraded[0].restored_iteration, 0U);
    EXPECT_NE(report.degraded[0].reason.find("memory replica"),
              std::string::npos)
        << report.degraded[0].reason;
}

/** A MemoryStore that logs every Put and Erase key, in call order. */
class RecordingStore final : public ObjectStore {
  public:
    void Put(const std::string& key, Blob blob) override {
        Log("put " + key);
        base_.Put(key, std::move(blob));
    }
    std::optional<Blob> Get(const std::string& key) const override {
        return base_.Get(key);
    }
    bool Contains(const std::string& key) const override {
        return base_.Contains(key);
    }
    void Erase(const std::string& key) override {
        Log("erase " + key);
        base_.Erase(key);
    }
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

    std::vector<std::string> ops() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return ops_;
    }

  private:
    void Log(std::string op) {
        const std::lock_guard<std::mutex> lock(mu_);
        ops_.push_back(std::move(op));
    }

    mutable std::mutex mu_;
    std::vector<std::string> ops_;
    MemoryStore base_;
};

TEST(MocSystem, ManifestLandsBeforePrunedBlobsAreErased) {
    MoeTransformerLm model(TinyLm());
    const auto topo = TwoNodeTopology();
    RecordingStore store;
    MocSystemConfig cfg = DefaultSystem(4, 4);
    cfg.persist_backend = &store;
    cfg.persist_generations = 1;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);
    for (const std::size_t iteration : {4, 8, 12}) {
        extra.iteration = iteration;
        system.Checkpoint(iteration, extra);
    }
    const auto ops = store.ops();
    const std::string manifest_put = std::string("put ") + kManifestKey;
    std::size_t erases = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].rfind("erase ", 0) != 0) {
            continue;
        }
        ++erases;
        // The newest write before this erase is the manifest that no
        // longer lists the erased version.
        std::size_t j = i;
        while (j > 0 && ops[j - 1].rfind("erase ", 0) == 0) {
            --j;
        }
        ASSERT_GT(j, 0U) << ops[i];
        EXPECT_EQ(ops[j - 1], manifest_put) << ops[i];
    }
    EXPECT_GT(erases, 0U);
}

TEST(MocSystem, PruningLeavesNoEmptyDirectories) {
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("moc_prune_dirs_" + std::to_string(::getpid()));
    fs::remove_all(root);
    {
        FileStore store(root);
        MoeTransformerLm model(TinyLm());
        const auto topo = TwoNodeTopology();
        MocSystemConfig cfg = DefaultSystem(2, 1);
        cfg.persist_backend = &store;
        cfg.persist_generations = 1;
        ExtraState extra{0, 0, model.gating_rng().GetState()};
        MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(),
                                   extra);
        for (const std::size_t iteration : {4, 8, 12, 16}) {
            extra.iteration = iteration;
            system.Checkpoint(iteration, extra);
        }
        // Non-expert units are persisted every event, so generation 4's
        // copies were pruned and their directory went with them.
        ASSERT_TRUE(fs::exists(root / "gen" / "16" / "embedding"));
        EXPECT_FALSE(fs::exists(root / "gen" / "4" / "embedding"));
    }
    std::size_t dirs = 0;
    for (const auto& entry : fs::recursive_directory_iterator(root / "gen")) {
        if (entry.is_directory()) {
            ++dirs;
            EXPECT_FALSE(fs::is_empty(entry.path())) << entry.path();
        }
    }
    EXPECT_GT(dirs, 0U);
    fs::remove_all(root);
}

// ---------- Adaptive configuration ----------

AdaptiveInputs
BaseInputs() {
    AdaptiveInputs in;
    in.t_fb = 1.0;
    in.t_iter = 1.2;
    in.snapshot_bandwidth = 1e9;
    in.persist_bandwidth = 0.5e9;
    in.nonexpert_bytes_per_rank = 100e6;
    in.expert_unit_bytes = 200e6;
    in.num_moe_layers = 12;
    in.num_experts = 16;
    in.ep = 16;
    return in;
}

TEST(Adaptive, SnapshotTimeMonotoneInK) {
    const auto in = BaseInputs();
    for (std::size_t k = 1; k < 16; ++k) {
        EXPECT_LE(SnapshotTime(in, k), SnapshotTime(in, k + 1));
    }
}

TEST(Adaptive, PicksLargestOverlappableK) {
    const auto in = BaseInputs();
    const auto decision = ConfigureTwoLevelPec(in, 1);
    EXPECT_FALSE(decision.snapshot_overflows);
    EXPECT_LE(SnapshotTime(in, decision.k_snapshot), in.t_fb);
    if (decision.k_snapshot < in.num_experts) {
        EXPECT_GT(SnapshotTime(in, decision.k_snapshot + 1), in.t_fb);
    }
}

TEST(Adaptive, OverflowFlaggedWhenNothingFits) {
    auto in = BaseInputs();
    in.nonexpert_bytes_per_rank = 10e9;  // non-expert alone exceeds the window
    const auto decision = ConfigureTwoLevelPec(in, 1);
    EXPECT_TRUE(decision.snapshot_overflows);
    EXPECT_EQ(decision.k_snapshot, 1U);
}

TEST(Adaptive, IcKptMinCoversPersist) {
    const auto in = BaseInputs();
    const auto decision = ConfigureTwoLevelPec(in, 1);
    EXPECT_GE(static_cast<double>(decision.i_ckpt_min) * in.t_iter,
              decision.t_persist - 1e-9);
}

TEST(Adaptive, KPersistClamped) {
    const auto in = BaseInputs();
    const auto decision = ConfigureTwoLevelPec(in, 99);
    EXPECT_LE(decision.k_persist, decision.k_snapshot);
}

// ---------- Overhead model ----------

TEST(Overhead, SnapshotStallEq10) {
    EXPECT_DOUBLE_EQ(SnapshotStall(2.0, 1.5), 0.5);
    EXPECT_DOUBLE_EQ(SnapshotStall(1.0, 1.5), 0.0);
}

TEST(Overhead, ExpectedFaultsEq11) {
    FaultToleranceModel m;
    m.i_total = 1e5;
    m.lambda = 1e-4;
    EXPECT_DOUBLE_EQ(ExpectedFaults(m), 10.0);
}

TEST(Overhead, TotalOverheadEq12) {
    FaultToleranceModel m;
    m.i_total = 1000;
    m.lambda = 0.001;  // one expected fault
    m.t_iter = 2.0;
    m.o_restart = 100.0;
    // O = o_save * 1000/i + 1 * (100 + i/2 * 2).
    EXPECT_DOUBLE_EQ(TotalCheckpointOverhead(m, 5.0, 100.0),
                     5.0 * 10.0 + (100.0 + 100.0));
}

TEST(Overhead, OptimalIntervalMinimizes) {
    FaultToleranceModel m;
    m.i_total = 1e5;
    m.lambda = 1e-4;
    m.t_iter = 1.0;
    const double o_save = 8.0;
    const double best = OptimalInterval(m, o_save);
    const double at_best = TotalCheckpointOverhead(m, o_save, best);
    EXPECT_LT(at_best, TotalCheckpointOverhead(m, o_save, best * 2.0));
    EXPECT_LT(at_best, TotalCheckpointOverhead(m, o_save, best / 2.0));
}

TEST(Overhead, MocBeatsFullWhenSavingIsCheaper) {
    // Eq. 16: smaller o_save at the same interval always wins; a smaller
    // interval enabled by cheap saving also reduces the fault-loss term.
    FaultToleranceModel m;
    m.i_total = 1e5;
    m.lambda = 1e-4;
    m.t_iter = 1.0;
    m.o_restart = 60.0;
    EXPECT_TRUE(MocBeatsFull(m, 0.1, 100.0, 10.0, 100.0));
    const double i_moc = OptimalInterval(m, 0.1);
    const double i_full = OptimalInterval(m, 10.0);
    EXPECT_LT(i_moc, i_full);
    EXPECT_TRUE(MocBeatsFull(m, 0.1, i_moc, 10.0, i_full));
}

}  // namespace
}  // namespace moc

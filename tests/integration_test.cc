/**
 * @file
 * Cross-module integration tests: exact replay determinism, checkpoint
 * byte-level integrity through the store stack, consistency between the
 * analytic inventory and the real model's serialized sizes, and the
 * adaptive configurator driving the simulator.
 */

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/moc_system.h"
#include "data/probes.h"
#include "obs/metrics.h"
#include "storage/store_error.h"
#include "dist/presets.h"
#include "faults/trainer.h"
#include "nn/eval.h"
#include "sim/perf_model.h"
#include "sim/timeline.h"

namespace moc {
namespace {

LmConfig
TinyLm(std::uint64_t seed = 5) {
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    cfg.seed = seed;
    return cfg;
}

TEST(Integration, IdenticalSeedsYieldIdenticalTraining) {
    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 32;
    corpus_cfg.seed = 3;
    ZipfMarkovCorpus corpus(corpus_cfg);
    LmBatchStream train(corpus, 4, 12, 0);
    LmBatchStream valid(corpus, 4, 12, 1);

    LmTrainerConfig cfg;
    cfg.moc.i_ckpt = 8;
    cfg.parallel = {.dp = 4, .ep = 4, .tp = 1, .pp = 1};
    cfg.gpus_per_node = 2;
    cfg.total_iterations = 24;
    cfg.adam.lr = 3e-3;

    MoeTransformerLm a(TinyLm());
    MoeTransformerLm b(TinyLm());
    FaultInjector none_a(std::vector<FaultEvent>{});
    FaultInjector none_b(std::vector<FaultEvent>{});
    const auto log_a = RunFaultTolerantLmTraining(a, train, valid, cfg, none_a);
    const auto log_b = RunFaultTolerantLmTraining(b, train, valid, cfg, none_b);
    ASSERT_EQ(log_a.train_losses.size(), log_b.train_losses.size());
    for (std::size_t i = 0; i < log_a.train_losses.size(); ++i) {
        EXPECT_DOUBLE_EQ(log_a.train_losses[i].second, log_b.train_losses[i].second);
    }
}

TEST(Integration, CheckpointBlobsSurviveStoreRoundTrip) {
    // Serialize a group through the system, flip a byte in storage, and
    // confirm the CRC layer detects it on recovery: the damaged copy is
    // read-repaired from a surviving memory replica, and when the copy and
    // every replica are gone recovery fails with a typed StoreError.
    MoeTransformerLm model(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 4;
    cfg.i_ckpt = 4;
    cfg.two_level_recovery = false;  // force the storage read path
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);

    auto& storage = system.storage();
    // The one persisted copy of a weight unit whose memory replica lives
    // on node 1, which survives the first fault below.
    std::string victim;
    for (const auto& unit : system.manifest().KeysAt(StoreLevel::kMemory)) {
        const auto replica = system.manifest().Latest(StoreLevel::kMemory, unit);
        if (unit.find("/w") != std::string::npos && replica.has_value() &&
            replica->node == 1) {
            victim = MocCheckpointSystem::GenKey(0, unit);
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    ASSERT_TRUE(storage.Contains(victim));
    const auto pristine = *storage.Get(victim);
    auto blob = pristine;
    blob[blob.size() / 2] ^= 0x1;
    storage.Put(victim, blob);

    auto& repairs = obs::MetricsRegistry::Instance().GetCounter(
        "store.read_repairs_total");
    const std::uint64_t repairs_before = repairs.value();
    const RecoveryReport report = system.RecoverFromFault({0});
    EXPECT_EQ(report.extra.iteration, 0u);
    EXPECT_TRUE(report.degraded.empty());
    EXPECT_GT(repairs.value(), repairs_before);
    // The repair wrote the intact replica back over the damaged copy.
    EXPECT_EQ(*storage.Get(victim), pristine);

    // Damage the persisted copy again AND lose every memory replica (both
    // nodes fail): no repair source is left, so the typed error surfaces.
    storage.Put(victim, blob);
    EXPECT_THROW(system.RecoverFromFault({0, 1}), StoreError);
}

TEST(Integration, RealModelSerializedSizesTrackInventory) {
    // The analytic inventory predicts parameter counts per unit; the real
    // serialized blobs must match (4 bytes/param + framing overhead).
    LmConfig cfg = TinyLm();
    MoeTransformerLm model(cfg);
    const ModelStateInventory inv(cfg.ToModelSpec(), StateBytes{});
    for (auto& group : model.ParameterGroups()) {
        const Blob w = SerializeParamList(group.params, /*weights=*/true);
        std::size_t inv_params = 0;
        for (const auto& m : inv.modules()) {
            if (m.key == group.key) {
                inv_params = m.params;
            }
        }
        if (inv_params == 0) {
            continue;  // "head"-like groups absent from LM inventory
        }
        const std::size_t payload = inv_params * sizeof(float);
        EXPECT_GE(w.size(), payload);
        EXPECT_LE(w.size(), payload + 64 * group.params.size() + 16);
    }
}

TEST(Integration, AdaptiveConfigConsistentWithSimulator) {
    // Feed the simulator's own numbers into the adaptive configurator; the
    // chosen K must produce a snapshot that the simulator also deems
    // overlappable.
    TrainingSetup setup;
    setup.model = Gpt350M16E();
    setup.parallel = Case2().parallel;
    setup.gpus_per_node = Case2().GpusPerNode();
    setup.gpu = A800();
    const PerfModel model(setup);

    AdaptiveInputs in;
    in.t_fb = model.FbTime();
    in.t_iter = model.IterTime();
    in.snapshot_bandwidth = setup.gpu.snapshot_bandwidth;
    in.persist_bandwidth = setup.persist_bandwidth;
    // Exact per-unit payloads from the inventory.
    const Bytes per_param = setup.bytes.weight + setup.bytes.optim;
    in.expert_unit_bytes = static_cast<Bytes>(setup.model.FfnParams()) *
                           per_param / model.topology().NumEpGroups();
    in.nonexpert_bytes_per_rank = static_cast<Bytes>(
        setup.model.NonExpertParams()) * per_param / setup.parallel.dp;
    in.num_moe_layers = setup.model.NumMoeLayers();
    in.num_experts = setup.model.num_experts;
    in.ep = setup.parallel.ep;

    const auto decision = ConfigureTwoLevelPec(in, 1);
    if (!decision.snapshot_overflows) {
        const auto timing =
            SimulateMethod(model, CkptMethod::kMocAsync, decision.k_snapshot);
        EXPECT_NEAR(timing.o_save, 0.0, 0.15 * in.t_fb);
    }
}

TEST(Integration, ProbeSuiteEvaluationIsDeterministic) {
    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 32;
    corpus_cfg.seed = 3;
    ZipfMarkovCorpus corpus(corpus_cfg);
    ProbeSuiteConfig probe_cfg;
    probe_cfg.items_per_task = 10;
    probe_cfg.context_len = 8;
    probe_cfg.continuation_len = 2;
    const auto suite = BuildProbeSuite(corpus, probe_cfg);
    // Chain8 items need context (8) + continuation (8) tokens of headroom.
    LmConfig lm_cfg = TinyLm();
    lm_cfg.max_seq = 20;
    MoeTransformerLm model(lm_cfg);
    const auto a = EvalProbeSuite(model, suite);
    const auto b = EvalProbeSuite(model, suite);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].accuracy, b[i].accuracy);
    }
    EXPECT_EQ(a.back().task, "Avg");
}

TEST(Integration, FrozenExpertsFineTuneOnlyMovesNonExpert) {
    // The Table 4 "FT-w.o.E" code path: freezing expert parameters.
    MoeTransformerLm model(TinyLm());
    for (auto& g : model.ParameterGroups()) {
        if (g.kind == ModuleKind::kExpert) {
            for (auto* p : g.params) {
                p->set_frozen(true);
            }
        }
    }
    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 32;
    ZipfMarkovCorpus corpus(corpus_cfg);
    LmBatchStream stream(corpus, 4, 12, 0);
    Adam adam(AdamConfig{.lr = 3e-3});
    const auto params = model.AllParameters();

    std::vector<Tensor> expert_before;
    for (auto& g : model.ParameterGroups()) {
        if (g.kind == ModuleKind::kExpert) {
            for (auto* p : g.params) {
                expert_before.push_back(p->value());
            }
        }
    }
    for (std::size_t i = 0; i < 10; ++i) {
        model.TrainBackward(stream.Get(i));
        adam.Step(params);
    }
    std::size_t idx = 0;
    for (auto& g : model.ParameterGroups()) {
        if (g.kind == ModuleKind::kExpert) {
            for (auto* p : g.params) {
                EXPECT_TRUE(p->value().AllClose(expert_before[idx], 0.0F));
                ++idx;
            }
        }
    }
}

}  // namespace
}  // namespace moc

/**
 * @file
 * Tests for cold-start restore, store copying, and the gantt renderer.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/cold_start.h"
#include "dist/presets.h"
#include "nn/model.h"
#include "sim/gantt.h"
#include "sim/perf_model.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"
#include "util/json.h"

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
    cfg.seed = 5;
    return cfg;
}

TEST(ColdStart, RestoresWeightsAndOptimizerExactly) {
    MoeTransformerLm original(TinyLm());
    // Give the model a distinctive state.
    for (auto* p : original.AllParameters()) {
        p->value()[0] = 42.0F;
        p->adam_m()[0] = 7.0F;
        p->adam_v()[0] = 9.0F;
    }
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 4;
    cfg.i_ckpt = 4;
    ExtraState extra{0, 0, original.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, original, topo, TinyLm().ToModelSpec(), extra);
    extra.iteration = 8;
    extra.adam_step = 8;
    system.Checkpoint(8, extra);

    MoeTransformerLm fresh(TinyLm());
    fresh.AllParameters()[0]->value()[0] = -1.0F;  // differs before restore
    const auto report = ColdStartFromStore(fresh, system.storage());
    EXPECT_EQ(report.extra.iteration, 8U);
    EXPECT_EQ(report.extra.adam_step, 8U);
    EXPECT_TRUE(report.missing.empty());
    EXPECT_GT(report.bytes_read, 0U);
    const auto orig_params = original.AllParameters();
    const auto fresh_params = fresh.AllParameters();
    ASSERT_EQ(orig_params.size(), fresh_params.size());
    for (std::size_t i = 0; i < orig_params.size(); ++i) {
        EXPECT_TRUE(fresh_params[i]->value().AllClose(orig_params[i]->value(), 0.0F));
        EXPECT_TRUE(fresh_params[i]->adam_m().AllClose(orig_params[i]->adam_m(), 0.0F));
        EXPECT_TRUE(fresh_params[i]->adam_v().AllClose(orig_params[i]->adam_v(), 0.0F));
    }
}

TEST(ColdStart, RejectsNonCheckpointStore) {
    MemoryStore store;
    store.Put("random", Blob(10, 1));
    MoeTransformerLm model(TinyLm());
    EXPECT_THROW(ColdStartFromStore(model, store), std::invalid_argument);
}

/**
 * Drops @p unit's persist history from the manifest stored in @p store, as
 * if the checkpoint predated that module.
 */
void
ForgetUnit(ObjectStore& store, const std::string& unit) {
    const Blob blob = *store.Get(kManifestKey);
    json::Object doc =
        json::Parse(std::string(blob.begin(), blob.end())).AsObject();
    json::Object persist = doc.at("persist").AsObject();
    ASSERT_EQ(persist.erase(unit), 1U);
    doc["persist"] = json::Value(std::move(persist));
    json::Writer w;
    w.Put(json::Value(std::move(doc)));
    const std::string& text = w.str();
    store.Put(kManifestKey, Blob(text.begin(), text.end()));
}

TEST(ColdStart, ReportsMissingUnits) {
    MoeTransformerLm original(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 4;
    cfg.i_ckpt = 4;
    ExtraState extra{0, 0, original.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, original, topo, TinyLm().ToModelSpec(), extra);
    auto& storage = system.storage();
    const std::string copy = MocCheckpointSystem::GenKey(0, "embedding/w");
    ASSERT_TRUE(storage.Contains(copy));

    // A recorded unit whose only copy is gone makes its generation
    // unrestorable: cold start fails typed instead of reporting it missing.
    const Blob kept = *storage.Get(copy);
    storage.Erase(copy);
    MoeTransformerLm damaged(TinyLm());
    EXPECT_THROW(ColdStartFromStore(damaged, storage), StoreError);

    // A unit the manifest never recorded is missing, not damage.
    storage.Put(copy, kept);
    ForgetUnit(storage, "embedding/w");
    MoeTransformerLm fresh(TinyLm());
    const auto report = ColdStartFromStore(fresh, storage);
    ASSERT_EQ(report.missing.size(), 1U);
    EXPECT_EQ(report.missing[0], "embedding/w");
}

TEST(ColdStart, FlippedTensorPayloadFallsBackAGeneration) {
    MoeTransformerLm original(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 4;
    cfg.i_ckpt = 4;
    ExtraState extra{0, 0, original.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, original, topo, TinyLm().ToModelSpec(), extra);
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    const Tensor at_4 = original.AllParameters()[0]->value();
    for (auto* p : original.AllParameters()) {
        p->value()[0] += 1.0F;
    }
    extra.iteration = 8;
    system.Checkpoint(8, extra);

    // One payload bit of a non-expert unit at generation 8. The tensor
    // encoding has no checksum of its own; the manifest CRC-32C catches it.
    auto& storage = system.storage();
    const std::string key = MocCheckpointSystem::GenKey(8, "embedding/w");
    Blob blob = *storage.Get(key);
    blob.back() ^= 0x01;
    storage.Put(key, std::move(blob));

    MoeTransformerLm fresh(TinyLm());
    const auto report = ColdStartFromStore(fresh, storage);
    EXPECT_EQ(report.generation, 4U);
    EXPECT_EQ(report.extra.iteration, 4U);
    EXPECT_TRUE(fresh.AllParameters()[0]->value().AllClose(at_4, 0.0F));
}

TEST(CopyStore, CopiesEverythingAcrossBackends) {
    MemoryStore src;
    src.Put("a/b", Blob(10, 1));
    src.Put("c", Blob(20, 2));
    const auto dir = std::filesystem::temp_directory_path() / "moc_copy_test";
    std::filesystem::remove_all(dir);
    {
        FileStore dst(dir);
        const Bytes copied = CopyStore(src, dst);
        EXPECT_EQ(copied, 30U);
        EXPECT_EQ(dst.Count(), 2U);
        EXPECT_EQ(dst.Get("a/b")->front(), 1);
        EXPECT_EQ(dst.Get("c")->size(), 20U);
    }
    std::filesystem::remove_all(dir);
}

TEST(CopyStore, ColdStartThroughFileStoreRoundTrip) {
    MoeTransformerLm original(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 4;
    cfg.i_ckpt = 4;
    ExtraState extra{0, 0, original.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, original, topo, TinyLm().ToModelSpec(), extra);

    const auto dir = std::filesystem::temp_directory_path() / "moc_cold_file";
    std::filesystem::remove_all(dir);
    {
        FileStore disk(dir);
        CopyStore(system.storage(), disk);
        MoeTransformerLm fresh(TinyLm());
        const auto report = ColdStartFromStore(fresh, disk);
        EXPECT_TRUE(report.missing.empty());
        EXPECT_TRUE(fresh.AllParameters()[0]->value().AllClose(
            original.AllParameters()[0]->value(), 0.0F));
    }
    std::filesystem::remove_all(dir);
}

// ---------- Gantt rendering ----------

TEST(Gantt, BlockingShowsAllFourPhases) {
    TrainingSetup setup;
    setup.model = Gpt350M16E();
    setup.parallel = Case2().parallel;
    setup.gpus_per_node = Case2().GpusPerNode();
    setup.gpu = A800();
    const PerfModel model(setup);
    const auto timing = SimulateMethod(model, CkptMethod::kBaseline, 4);
    const std::string art = RenderIterationGantt(timing, 40);
    EXPECT_NE(art.find("Baseline"), std::string::npos);
    EXPECT_NE(art.find("F&B"), std::string::npos);
    EXPECT_NE(art.find("Snapshot"), std::string::npos);
    EXPECT_NE(art.find("(blocking)"), std::string::npos);
}

TEST(Gantt, AsyncAnnotatesOverlap) {
    TrainingSetup setup;
    setup.model = Gpt350M16E();
    setup.parallel = Case2().parallel;
    setup.gpus_per_node = Case2().GpusPerNode();
    setup.gpu = A800();
    setup.batch_per_gpu = 256 / setup.parallel.dp;
    const PerfModel model(setup);
    const auto timing = SimulateMethod(model, CkptMethod::kMocAsync, 4);
    const std::string art = RenderIterationGantt(timing, 40);
    EXPECT_NE(art.find("fully overlapped"), std::string::npos);
    EXPECT_NE(art.find("(background)"), std::string::npos);
}

TEST(Gantt, RejectsTinyWidth) {
    MethodTiming timing;
    timing.method = "Baseline";
    EXPECT_THROW(RenderIterationGantt(timing, 5), std::invalid_argument);
}

TEST(Gantt, BarsStayWithinWidth) {
    MethodTiming timing;
    timing.method = "Base-Async";
    timing.t_fb = 1.0;
    timing.t_update = 0.1;
    timing.t_snapshot = 2.0;
    timing.t_persist = 4.0;
    timing.iteration = 2.1;
    timing.o_save = 1.0;
    const std::string art = RenderIterationGantt(timing, 30);
    for (const auto& line : {std::string("F&B"), std::string("Persist")}) {
        const auto pos = art.find(line);
        ASSERT_NE(pos, std::string::npos);
    }
    // Every bar row is bounded by the pipe characters at width 30.
    std::istringstream is(art);
    std::string line;
    while (std::getline(is, line)) {
        const auto first = line.find('|');
        if (first == std::string::npos) {
            continue;
        }
        const auto second = line.find('|', first + 1);
        ASSERT_NE(second, std::string::npos);
        EXPECT_EQ(second - first - 1, 30U);
    }
}

}  // namespace
}  // namespace moc

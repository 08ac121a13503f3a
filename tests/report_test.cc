/**
 * @file
 * End-to-end tests for `moc_cli report`: a small fault-tolerant training
 * run exports metrics + events, the report ingests them, and the
 * machine-readable section must agree with src/core/overhead.h evaluated
 * at the same operating point (the paper's Eq. 11-13). Also covers the
 * malformed-input and fault-free paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_lib.h"
#include "core/overhead.h"
#include "faults/trainer.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace moc {
namespace {

constexpr const char* kMachineMarker = "--- machine-readable (moc-report/1) ---";

/** Runs `moc_cli report <args...>`, returning (exit code, stdout). */
std::pair<int, std::string>
Report(const std::vector<std::string>& args) {
    std::vector<std::string> tokens = {"report"};
    tokens.insert(tokens.end(), args.begin(), args.end());
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::Main(tokens, out, err);
    return {code, out.str() + err.str()};
}

/** The JSON object following the machine-readable marker. */
json::Value
MachineSection(const std::string& output) {
    const std::size_t marker = output.find(kMachineMarker);
    EXPECT_NE(marker, std::string::npos);
    return json::Parse(output.substr(marker + std::string(kMachineMarker).size()));
}

/** One directory per test: ctest runs the Report tests as parallel processes. */
struct TempDir {
    std::filesystem::path path;
    TempDir()
        : path(std::filesystem::temp_directory_path() /
               (std::string("moc_report_test_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string File(const char* name) const { return (path / name).string(); }
};

/** A small LM training run with one injected fault, artifacts exported. */
void
RunFaultyTraining(const TempDir& dir) {
    obs::MetricsRegistry::Instance().ResetAll();
    obs::EventJournal::Instance().Clear();

    LmConfig model_cfg;
    model_cfg.vocab = 32;
    model_cfg.max_seq = 12;
    model_cfg.hidden = 16;
    model_cfg.num_heads = 2;
    model_cfg.head_dim = 8;
    model_cfg.num_layers = 2;
    model_cfg.ffn_mult = 2;
    model_cfg.num_experts = 4;
    model_cfg.seed = 5;

    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 32;
    corpus_cfg.seed = 3;
    ZipfMarkovCorpus corpus(corpus_cfg);
    LmBatchStream train(corpus, 8, 12, 0);
    LmBatchStream valid(corpus, 8, 12, 1);

    LmTrainerConfig cfg;
    cfg.moc.pec.k_snapshot = 2;
    cfg.moc.pec.k_persist = 1;
    cfg.moc.i_ckpt = 8;
    cfg.moc.two_level_recovery = true;
    cfg.moc.dynamic_k = true;
    cfg.parallel = {.dp = 4, .ep = 4, .tp = 1, .pp = 1};
    cfg.gpus_per_node = 2;
    cfg.total_iterations = 48;
    cfg.adam.lr = 3e-3;

    MoeTransformerLm model(model_cfg);
    auto injector = FaultInjector::At(26, 0);
    const auto log = RunFaultTolerantLmTraining(model, train, valid, cfg, injector);
    ASSERT_EQ(log.recoveries.size(), 1U);

    ASSERT_TRUE(obs::WriteMetricsJson(dir.File("metrics.json")));
    ASSERT_TRUE(obs::WriteEventsJsonl(dir.File("events.jsonl")));
}

TEST(Report, EndToEndSectionsPresent) {
    TempDir dir;
    RunFaultyTraining(dir);
    const auto [code, out] = Report({"--metrics", dir.File("metrics.json"),
                                     "--events", dir.File("events.jsonl")});
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("== recovery timeline =="), std::string::npos);
    EXPECT_NE(out.find("== PLT trajectory"), std::string::npos);
    EXPECT_NE(out.find("== expert staleness =="), std::string::npos);
    EXPECT_NE(out.find("== overhead model (measured vs Eq. 11-13) =="),
              std::string::npos);
    EXPECT_NE(out.find(kMachineMarker), std::string::npos);
    // One fault at iteration 26, restart at the iteration-24 checkpoint.
    EXPECT_NE(out.find("nodes=0"), std::string::npos);
}

TEST(Report, PredictionsMatchOverheadModelAtOperatingPoint) {
    TempDir dir;
    RunFaultyTraining(dir);
    const auto [code, out] = Report({"--metrics", dir.File("metrics.json"),
                                     "--events", dir.File("events.jsonl")});
    ASSERT_EQ(code, 0) << out;
    const json::Value machine = MachineSection(out);

    // Re-evaluate src/core/overhead.h at the report's own operating point;
    // the predicted section must be exactly this model (modulo the %.9g
    // round-trip through the JSON emitter).
    const json::Value& op = machine.At("operating_point");
    FaultToleranceModel model;
    model.i_total = op.At("i_total").AsNumber();
    model.lambda = op.At("lambda").AsNumber();
    model.t_iter = op.At("t_iter").AsNumber();
    model.o_restart = op.At("o_restart").AsNumber();
    const double o_save = op.At("o_save").AsNumber();
    const double i_ckpt = op.At("i_ckpt").AsNumber();

    const auto near = [](double actual, double expected) {
        EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-6 + 1e-9);
    };
    const json::Value& predicted = machine.At("predicted");
    near(predicted.At("expected_faults").AsNumber(), ExpectedFaults(model));
    near(predicted.At("total_overhead_s").AsNumber(),
         TotalCheckpointOverhead(model, o_save, i_ckpt));
    near(predicted.At("optimal_interval_iters").AsNumber(),
         OptimalInterval(model, o_save));

    // Operating point sanity: the run had 1 fault in 48+replayed iterations,
    // checkpointing every 8 (inferred from the journal, not the config).
    EXPECT_DOUBLE_EQ(machine.At("measured").At("faults").AsNumber(), 1.0);
    EXPECT_DOUBLE_EQ(i_ckpt, 8.0);
    near(model.lambda, 1.0 / model.i_total);

    // Measured = predicted + residual must hold by construction.
    near(machine.At("measured").At("overhead_s").AsNumber(),
         predicted.At("total_overhead_s").AsNumber() +
             machine.At("residual").At("overhead_s").AsNumber());

    EXPECT_DOUBLE_EQ(machine.At("events").At("recoveries").AsNumber(), 1.0);
}

TEST(Report, WritesMachineJsonFile) {
    TempDir dir;
    RunFaultyTraining(dir);
    const auto [code, out] =
        Report({"--metrics", dir.File("metrics.json"), "--events",
                dir.File("events.jsonl"), "--report-json", dir.File("report.json")});
    ASSERT_EQ(code, 0) << out;
    std::ifstream in(dir.File("report.json"));
    std::stringstream content;
    content << in.rdbuf();
    const json::Value machine = json::Parse(content.str());
    EXPECT_EQ(machine.At("schema").AsString(), "moc-report/1");
    EXPECT_DOUBLE_EQ(machine.At("measured").At("faults").AsNumber(), 1.0);
}

TEST(Report, FaultFreeRunDisablesFaultTerms) {
    TempDir dir;
    {
        std::ofstream metrics(dir.File("metrics.json"));
        metrics << "{\"meta\": {\"schema\": \"moc-obs/1\"},\n"
                   " \"counters\": {\"train.iterations\": 100,"
                   " \"ckpt.events\": 5},\n"
                   " \"gauges\": {}, \"histograms\": {}, \"experts\": []}\n";
    }
    const auto [code, out] = Report({"--metrics", dir.File("metrics.json")});
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("fault-free run"), std::string::npos);
    const json::Value machine = MachineSection(out);
    EXPECT_DOUBLE_EQ(machine.At("predicted").At("expected_faults").AsNumber(),
                     0.0);
    EXPECT_TRUE(machine.At("predicted").At("optimal_interval_iters").is_null());
    EXPECT_DOUBLE_EQ(machine.At("operating_point").At("i_ckpt").AsNumber(),
                     20.0);  // 100 iterations / 5 checkpoints
}

TEST(Report, MalformedInputsFailCleanly) {
    TempDir dir;
    {
        // Missing/unparsable inputs are exit code 2, the CLI's usage-error
        // convention, so CI scripts can tell them from analysis findings.
        const auto missing = Report({"--metrics", dir.File("nope.json")});
        EXPECT_EQ(missing.first, 2);
        EXPECT_NE(missing.second.find("error:"), std::string::npos);
    }
    {
        std::ofstream bad(dir.File("bad.json"));
        bad << "{\"counters\": [not json";
    }
    {
        const auto malformed = Report({"--metrics", dir.File("bad.json")});
        EXPECT_EQ(malformed.first, 2);
        EXPECT_NE(malformed.second.find("error:"), std::string::npos);
    }
    {
        std::ofstream metrics(dir.File("ok.json"));
        metrics << "{\"counters\": {}}";
        std::ofstream events(dir.File("bad.jsonl"));
        events << "{\"type\": \"no_such_kind\"}\n";
    }
    {
        const auto bad_events = Report({"--metrics", dir.File("ok.json"),
                                        "--events", dir.File("bad.jsonl")});
        EXPECT_EQ(bad_events.first, 2);
        EXPECT_NE(bad_events.second.find("error:"), std::string::npos);
    }
    {
        const auto no_args = Report({});
        EXPECT_EQ(no_args.first, 2);
        EXPECT_NE(no_args.second.find("usage:"), std::string::npos);
    }
}

}  // namespace
}  // namespace moc

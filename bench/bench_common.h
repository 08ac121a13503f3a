#ifndef MOC_BENCH_BENCH_COMMON_H_
#define MOC_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared configurations for the figure/table reproduction harnesses: the
 * laptop-scale stand-ins for GPT-125M-8E / GPT-350M-16E / SwinV2-MoE and the
 * synthetic corpora they train on (see DESIGN.md, "Substitutions").
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "data/corpus.h"
#include "nn/classifier.h"
#include "nn/model.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace moc::bench {

/** Tiny GPT-MoE with 8 experts: the GPT-125M-8E stand-in (Fig. 5). */
inline LmConfig
TinyGpt8E(std::uint64_t seed = 21) {
    LmConfig cfg;
    cfg.vocab = 64;
    cfg.max_seq = 24;  // headroom for probe contexts + 8-token continuations
    cfg.hidden = 24;
    cfg.num_heads = 2;
    cfg.head_dim = 12;
    cfg.num_layers = 4;
    cfg.ffn_mult = 2;
    cfg.num_experts = 8;
    cfg.top_k = 1;
    cfg.moe_every = 2;
    cfg.moe_offset = 1;
    cfg.seed = seed;
    return cfg;
}

/** Slightly larger 16-expert stand-in for GPT-350M-16E (Fig. 14a, Tables). */
inline LmConfig
TinyGpt16E(std::uint64_t seed = 22) {
    LmConfig cfg = TinyGpt8E(seed);
    cfg.num_experts = 16;
    cfg.hidden = 32;
    cfg.head_dim = 16;
    return cfg;
}

/** The SwinV2-MoE stand-in classifier (Fig. 14b). */
inline ClassifierConfig
TinySwinMoe(std::uint64_t seed = 23) {
    ClassifierConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.num_classes = 8;
    cfg.hidden = 24;
    cfg.num_heads = 2;
    cfg.head_dim = 12;
    cfg.num_layers = 4;
    cfg.ffn_mult = 2;
    cfg.num_experts = 8;
    cfg.seed = seed;
    return cfg;
}

/** The pre-training corpus (Wikitext-2 / SlimPajama stand-in). */
inline CorpusConfig
PretrainCorpus() {
    CorpusConfig cfg;
    cfg.vocab_size = 64;
    cfg.branching = 4;
    cfg.structure_weight = 0.85;
    cfg.zipf_exponent = 1.1;
    cfg.seed = 1234;
    return cfg;
}

inline void
PrintHeader(const char* id, const char* title) {
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("================================================================\n");
}

/** Ordered (name, value) headline scalars a harness wants gated in CI. */
using BenchScalars = std::vector<std::pair<std::string, double>>;

/**
 * Dumps the metrics registry next to the harness's CSV results as
 * `results/<bench_id>_metrics.json` and the event journal as
 * `results/<bench_id>_events.jsonl`, so every benchmark trajectory carries
 * the stall/overlap/byte counters and checkpoint/fault timeline its run
 * accumulated, ready for `moc_cli report`. Latency-shaped histograms also
 * get a p50/p95/p99 stdout summary (see obs::HistogramQuantile).
 *
 * Every harness additionally writes `results/BENCH_<bench_id>.json`
 * (schema `moc-bench/1`): run metadata plus the @p scalars it nominates as
 * headline numbers. Nominate *deterministic* quantities — bytes, counts,
 * ratios — not wall-clock timings; `tools/bench_gate.py` diffs them against
 * the checked-in baseline under `bench/baselines/` with a tolerance gate.
 */
inline void
WriteBenchMetrics(const char* bench_id, const BenchScalars& scalars = {}) {
    {
        json::Writer j;
        j.BeginObject().Field("schema", "moc-bench/1").Field("bench", bench_id)
            .Key("run_meta").BeginObject()
            .Field("harness", std::string("bench_") + bench_id)
            .Field("results_dir", "results").EndObject()
            .Key("scalars").BeginObject();
        for (const auto& [name, value] : scalars) {
            j.Field(name, value);
        }
        j.EndObject().EndObject().EndLine();
        const std::string summary_path =
            std::string("results/BENCH_") + bench_id + ".json";
        if (moc::obs::WriteTextFile(summary_path, j.str(), "bench summary")) {
            std::printf("bench summary written to %s\n", summary_path.c_str());
        }
    }
    const std::string path =
        std::string("results/") + bench_id + "_metrics.json";
    if (moc::obs::WriteMetricsJson(path)) {
        std::printf("metrics written to %s\n", path.c_str());
    }
    const std::string events_path =
        std::string("results/") + bench_id + "_events.jsonl";
    if (moc::obs::EventJournal::Instance().size() > 0 &&
        moc::obs::WriteEventsJsonl(events_path)) {
        std::printf("events written to %s\n", events_path.c_str());
    }
    const auto snap = moc::obs::MetricsRegistry::Instance().Snapshot();
    for (const char* name :
         {"train.iteration_seconds", "ckpt.duration_seconds",
          "recovery.duration_seconds"}) {
        const auto it = snap.histograms.find(name);
        if (it == snap.histograms.end() || it->second.count == 0) {
            continue;
        }
        std::printf("%s p50/p95/p99: %.6f / %.6f / %.6f s (n=%llu)\n", name,
                    moc::obs::HistogramP50(it->second),
                    moc::obs::HistogramP95(it->second),
                    moc::obs::HistogramP99(it->second),
                    static_cast<unsigned long long>(it->second.count));
    }
}

}  // namespace moc::bench

#endif  // MOC_BENCH_BENCH_COMMON_H_

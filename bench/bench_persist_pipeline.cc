/**
 * @file
 * Cluster persist-pipeline A/B: the per-shard keyed commit protocol with and
 * without unchanged-expert dedup, on a PEC-shaped workload (K changed
 * experts per event, K << N — Section 4.2). Measures persisted bytes and
 * event makespan across a run of checkpoint events, then demonstrates the
 * torn-checkpoint failure mode the commit protocol removes: a mid-event
 * persist fault leaves the generation unsealed and recovery falls back to
 * the previous sealed one.
 *
 * A second A/B targets the hot-expert regime dedup cannot touch: every
 * shard changes ~1% of its chunks every event, so whole-blob identity never
 * matches and dedup-only rewrites everything. Delta encoding persists just
 * the changed chunks and the run ends with a full cluster restore that is
 * checked byte-for-byte against the live state.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "storage/faulty_store.h"
#include "storage/persistent_store.h"
#include "util/csv.h"
#include "util/table.h"

using namespace moc;
using namespace moc::bench;

namespace {

constexpr std::size_t kRanks = 4;
constexpr std::size_t kExpertsPerRank = 16;
constexpr std::size_t kPecK = 8;  // changed experts per event (K << N = 64)
constexpr std::size_t kEvents = 6;
// Large enough that the modeled write sleeps dwarf per-call scheduler
// overhead (synthetic scale: 1 planned MiB -> 1 KiB on disk).
constexpr Bytes kExpertBytes = 32 * kMiB;
constexpr Bytes kDenseBytes = 128 * kMiB;

ShardPlan
PecPlan() {
    ShardPlan plan(kRanks);
    for (RankId r = 0; r < kRanks; ++r) {
        plan.Add(r, {"dense/" + std::to_string(r), kDenseBytes, false});
        for (std::size_t e = 0; e < kExpertsPerRank; ++e) {
            const std::size_t id = r * kExpertsPerRank + e;
            plan.Add(r, {"expert/" + std::to_string(id) + "/w", kExpertBytes,
                         false});
        }
    }
    return plan;
}

AgentCostModel
BenchCost() {
    AgentCostModel cost;
    cost.snapshot_bandwidth = 100e6;
    cost.persist_bandwidth = 50e6;
    cost.time_scale = 1.0;
    return cost;
}

/** Accumulated outcome of one mode's run. */
struct ModeResult {
    std::size_t keys_written = 0;
    std::size_t keys_deduped = 0;
    Bytes bytes_persisted = 0;
    Seconds total_makespan = 0.0;
    std::size_t sealed = 0;
};

/**
 * Runs @p events PEC-shaped checkpoint events through one engine: every
 * event trains the dense shards and K experts (round-robin), leaving the
 * other N-K experts bit-identical — the state dedup keys on.
 */
ModeResult
RunMode(ClusterCheckpointEngine& engine, const ShardPlan& plan) {
    std::map<std::string, std::uint64_t> version;
    std::size_t next_expert = 0;
    const BlobProvider provider = [&version](const ShardItem& item) {
        return SyntheticShardBytes(item, version[item.key]);
    };
    ModeResult result;
    for (std::size_t event = 1; event <= kEvents; ++event) {
        for (RankId r = 0; r < kRanks; ++r) {
            ++version["dense/" + std::to_string(r)];
        }
        for (std::size_t k = 0; k < kPecK; ++k) {
            const std::size_t id = next_expert++ % (kRanks * kExpertsPerRank);
            ++version["expert/" + std::to_string(id) + "/w"];
        }
        const auto stats = engine.Execute(plan, provider, event);
        result.keys_written += stats.keys_persisted;
        result.keys_deduped += stats.keys_deduped;
        result.bytes_persisted += stats.bytes_persisted;
        result.total_makespan += stats.total_makespan;
        result.sealed += stats.sealed ? 1 : 0;
    }
    return result;
}

// --- hot-expert churn scenario -------------------------------------------

constexpr std::size_t kHotEvents = 12;
constexpr std::size_t kHotChunkBytes = 64;  // matches the synthetic blob scale

/**
 * The live state of one shard after @p event training events: the base
 * synthetic blob with ~1% of its chunks XOR-perturbed per event
 * (cumulative). Every event touches every shard, so whole-blob dedup never
 * fires — only chunk-granular deltas can exploit the 99% that stayed put.
 */
Blob
HotChurnBytes(const ShardItem& item, std::uint64_t event) {
    Blob blob = SyntheticShardBytes(item, 1);
    const std::size_t chunks =
        (blob.size() + kHotChunkBytes - 1) / kHotChunkBytes;
    const std::size_t churn = std::max<std::size_t>(1, chunks / 100);
    for (std::uint64_t v = 2; v <= event; ++v) {
        for (std::size_t i = 0; i < churn; ++i) {
            const std::size_t off =
                ((v * 131 + i * 977) % chunks) * kHotChunkBytes;
            const std::size_t end = std::min(off + kHotChunkBytes, blob.size());
            for (std::size_t b = off; b < end; ++b) {
                blob[b] ^= static_cast<std::uint8_t>(0xA5 ^ v);
            }
        }
    }
    return blob;
}

/** Accumulated outcome of one hot-churn mode's run. */
struct HotResult {
    Bytes bytes_persisted = 0;
    std::size_t keys_delta = 0;
    Bytes bytes_delta_saved = 0;
    std::size_t forced_full = 0;
    std::size_t sealed = 0;
};

HotResult
RunHotMode(ClusterCheckpointEngine& engine, const ShardPlan& plan) {
    std::uint64_t event_now = 0;
    const BlobProvider provider = [&event_now](const ShardItem& item) {
        return HotChurnBytes(item, event_now);
    };
    HotResult result;
    for (std::size_t event = 1; event <= kHotEvents; ++event) {
        event_now = event;
        const auto stats = engine.Execute(plan, provider, event);
        result.bytes_persisted += stats.bytes_persisted;
        result.keys_delta += stats.keys_delta;
        result.bytes_delta_saved += stats.bytes_delta_saved;
        result.forced_full += stats.forced_full;
        result.sealed += stats.sealed ? 1 : 0;
    }
    return result;
}

}  // namespace

int
main() {
    PrintHeader("persist-pipeline", "per-shard keyed commit, full vs dedup");
    std::printf("%zu ranks x %zu experts, K=%zu changed per event, %zu events\n",
                kRanks, kExpertsPerRank, kPecK, kEvents);

    const auto plan = PecPlan();
    struct Mode {
        const char* name;
        bool dedup;
    };
    const Mode modes[] = {{"per-shard", false}, {"per-shard+dedup", true}};

    CsvWriter csv({"mode", "events", "keys_written", "keys_deduped",
                   "bytes_persisted", "makespan_s", "sealed_generations"});
    Table t({"mode", "keys written", "keys deduped", "bytes persisted",
             "makespan (s)", "sealed gens"});
    Bytes full_bytes = 0;
    Bytes dedup_bytes = 0;
    Seconds full_makespan = 0.0;
    Seconds dedup_makespan = 0.0;
    std::map<std::string, ModeResult> by_mode;
    for (const auto& mode : modes) {
        PersistentStore store(
            {.write_bandwidth = 50e6, .read_bandwidth = 200e6, .latency = 0.0});
        ClusterEngineOptions opt;
        opt.dedup = mode.dedup;
        ClusterCheckpointEngine engine(store, kRanks, BenchCost(), opt);
        const ModeResult r = RunMode(engine, plan);
        t.AddRow({mode.name, std::to_string(r.keys_written),
                  std::to_string(r.keys_deduped), FormatBytes(r.bytes_persisted),
                  Table::Num(r.total_makespan, 3), std::to_string(r.sealed)});
        csv.AddRow({mode.name, std::to_string(kEvents),
                    std::to_string(r.keys_written), std::to_string(r.keys_deduped),
                    std::to_string(r.bytes_persisted),
                    Table::Num(r.total_makespan, 4), std::to_string(r.sealed)});
        if (mode.dedup) {
            dedup_bytes = r.bytes_persisted;
            dedup_makespan = r.total_makespan;
        } else {
            full_bytes = r.bytes_persisted;
            full_makespan = r.total_makespan;
        }
        by_mode[mode.name] = r;
    }
    std::printf("%s", t.ToString().c_str());
    if (full_bytes > 0) {
        std::printf(
            "per-shard+dedup vs per-shard: %.1f%% of the bytes, %.2fx the "
            "makespan\n",
            100.0 * static_cast<double>(dedup_bytes) /
                static_cast<double>(full_bytes),
            dedup_makespan / full_makespan);
        std::printf("expected: dedup persists ~(K + dense)/(N + dense) of the "
                    "full bytes,\nwith correspondingly lower makespan "
                    "(unchanged experts never hit storage).\n");
    }
    csv.WriteFile("results/persist_pipeline.csv");

    PrintHeader("torn event", "commit protocol under a mid-event persist fault");
    {
        PersistentStore base(
            {.write_bandwidth = 50e6, .read_bandwidth = 200e6, .latency = 0.0});
        FaultyStore store(base, /*seed=*/2024);
        ClusterCheckpointEngine engine(store, kRanks, BenchCost());
        std::map<std::string, std::uint64_t> version;
        const BlobProvider provider = [&version](const ShardItem& item) {
            return SyntheticShardBytes(item, version[item.key]);
        };
        auto train = [&version](std::uint64_t event) {
            for (RankId r = 0; r < kRanks; ++r) {
                version["dense/" + std::to_string(r)] = event;
            }
        };
        train(1);
        const auto first = engine.Execute(plan, provider, 1);
        train(2);
        StorageFaultProfile profile;
        profile.put_transient_error = 1.0;  // every write of event 2 fails
        store.Arm(profile);
        const auto torn = engine.Execute(plan, provider, 2);
        store.Disarm();
        std::printf("event 1: sealed=%d  event 2 (faulty): sealed=%d, "
                    "%zu of %zu shard writes failed\n",
                    first.sealed ? 1 : 0, torn.sealed ? 1 : 0,
                    torn.persist_failures,
                    torn.keys_persisted + torn.keys_deduped +
                        torn.persist_failures);
        const auto restore = PlanClusterRestore(engine.manifest());
        if (restore.has_value()) {
            std::printf("restart target: generation %zu (torn generation %zu "
                        "never offered)\n",
                        restore->generation, torn.generation);
        } else {
            std::printf("restart target: none\n");
        }
    }

    PrintHeader("hot expert", "1% chunk churn: dedup-only vs delta encoding");
    std::printf("%zu events, every shard perturbs ~1%% of its %zu-byte chunks "
                "per event\n",
                kHotEvents, kHotChunkBytes);
    Bytes hot_dedup_bytes = 0;
    Bytes hot_delta_bytes = 0;
    std::size_t hot_keys_delta = 0;
    std::size_t hot_forced_full = 0;
    bool hot_restore_byte_equal = false;
    {
        CsvWriter hot_csv({"mode", "events", "bytes_persisted", "keys_delta",
                           "bytes_delta_saved", "forced_full",
                           "sealed_generations"});
        Table hot_t({"mode", "bytes persisted", "keys delta", "bytes saved",
                     "forced full", "sealed gens"});
        for (const bool delta : {false, true}) {
            PersistentStore store({.write_bandwidth = 50e6,
                                   .read_bandwidth = 200e6,
                                   .latency = 0.0});
            ClusterEngineOptions opt;
            opt.dedup = true;
            opt.delta = delta;
            opt.delta_chunk_bytes = kHotChunkBytes;
            // Deep enough that no chain hits the bound inside this run; the
            // forced-full cadence is covered by tests/delta_ckpt_test.cc.
            opt.max_delta_chain = 16;
            ClusterCheckpointEngine engine(store, kRanks, BenchCost(), opt);
            const HotResult r = RunHotMode(engine, plan);
            const char* name = delta ? "dedup+delta" : "dedup-only";
            hot_t.AddRow({name, FormatBytes(r.bytes_persisted),
                          std::to_string(r.keys_delta),
                          FormatBytes(r.bytes_delta_saved),
                          std::to_string(r.forced_full),
                          std::to_string(r.sealed)});
            hot_csv.AddRow({name, std::to_string(kHotEvents),
                            std::to_string(r.bytes_persisted),
                            std::to_string(r.keys_delta),
                            std::to_string(r.bytes_delta_saved),
                            std::to_string(r.forced_full),
                            std::to_string(r.sealed)});
            if (delta) {
                hot_delta_bytes = r.bytes_persisted;
                hot_keys_delta = r.keys_delta;
                hot_forced_full = r.forced_full;
                // The savings only count if the chains reconstruct: restore
                // the final sealed generation and compare byte-for-byte
                // against the live churned state.
                const auto restore_plan = PlanClusterRestore(engine.manifest());
                if (restore_plan.has_value()) {
                    const auto restored = ExecuteClusterRestore(
                        engine.manifest(), store, *restore_plan);
                    hot_restore_byte_equal = restored.damaged.empty() &&
                                             restored.degraded.empty();
                    for (RankId rk = 0; rk < kRanks && hot_restore_byte_equal;
                         ++rk) {
                        for (const ShardItem& item : plan.Items(rk)) {
                            const auto it = restored.blobs.find(
                                "rank" + std::to_string(rk) + "/" + item.key);
                            if (it == restored.blobs.end() ||
                                it->second != HotChurnBytes(item, kHotEvents)) {
                                hot_restore_byte_equal = false;
                                break;
                            }
                        }
                    }
                }
            } else {
                hot_dedup_bytes = r.bytes_persisted;
            }
        }
        std::printf("%s", hot_t.ToString().c_str());
        if (hot_delta_bytes > 0) {
            std::printf("dedup+delta vs dedup-only: %.1fx fewer bytes "
                        "persisted; restore byte-identical: %s\n",
                        static_cast<double>(hot_dedup_bytes) /
                            static_cast<double>(hot_delta_bytes),
                        hot_restore_byte_equal ? "yes" : "NO");
        }
        hot_csv.WriteFile("results/persist_pipeline_hot.csv");
    }

    // Headline scalars are all deterministic (byte/count accounting of the
    // synthetic workload) — wall-clock makespans stay out of the CI gate.
    BenchScalars scalars;
    for (const auto& [name, r] : by_mode) {
        scalars.emplace_back(name + ".keys_written",
                             static_cast<double>(r.keys_written));
        scalars.emplace_back(name + ".keys_deduped",
                             static_cast<double>(r.keys_deduped));
        scalars.emplace_back(name + ".bytes_persisted",
                             static_cast<double>(r.bytes_persisted));
        scalars.emplace_back(name + ".sealed_generations",
                             static_cast<double>(r.sealed));
    }
    if (full_bytes > 0) {
        scalars.emplace_back("dedup_bytes_ratio",
                             static_cast<double>(dedup_bytes) /
                                 static_cast<double>(full_bytes));
    }
    scalars.emplace_back("hot_expert.bytes_persisted_dedup_only",
                         static_cast<double>(hot_dedup_bytes));
    scalars.emplace_back("hot_expert.bytes_persisted_delta",
                         static_cast<double>(hot_delta_bytes));
    scalars.emplace_back("hot_expert.keys_delta",
                         static_cast<double>(hot_keys_delta));
    scalars.emplace_back("hot_expert.forced_full",
                         static_cast<double>(hot_forced_full));
    if (hot_delta_bytes > 0) {
        scalars.emplace_back("hot_expert.delta_reduction_x",
                             static_cast<double>(hot_dedup_bytes) /
                                 static_cast<double>(hot_delta_bytes));
    }
    scalars.emplace_back("hot_expert.restore_byte_equal",
                         hot_restore_byte_equal ? 1.0 : 0.0);
    WriteBenchMetrics("persist_pipeline", scalars);
    return 0;
}

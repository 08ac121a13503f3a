/**
 * @file
 * Flight-recorder demo: a multi-rank cluster persist with one deliberately
 * overloaded (straggler) rank and optional storage latency spikes, exported
 * for `moc_cli trace`. This is the driver behind the CI flight-recorder job:
 *
 *   cluster_persist --ranks 4 --events 3 --straggler 2 \
 *       --trace-out trace.json --events-out events.jsonl
 *   moc_cli trace --trace trace.json --events events.jsonl
 *
 * The straggler rank carries extra ballast shards, so it deterministically
 * finishes its serialize/snapshot/persist chain last and the critical-path
 * profiler must name it. With `--spike-prob` > 0 the FaultyStore injects
 * real latency spikes into shard writes; a `--shard-deadline-s` below the
 * spike makes the stall watchdog journal `stall` events for exactly those
 * writes, while a clean run journals none.
 *
 * It also drives the storage-faults CI delta e2e. With `--ckpt-dir` the
 * cluster persists into an on-disk FileStore that `moc_cli fsck` can audit;
 * `--delta` + `--churn F` evolve every shard by XOR-ing ~F of its chunks
 * per event (deterministic in the event number), so generations after the
 * first land as delta records. A later `--restore-only` invocation with the
 * same flags reloads the manifest from the directory, restores the newest
 * sealed generation, and checks each restored blob byte-for-byte against
 * the recomputed churned state at the iteration actually restored —
 * including chains degraded by a corrupted base.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "storage/faulty_store.h"
#include "storage/file_store.h"
#include "storage/persistent_store.h"
#include "util/table.h"

using namespace moc;

namespace {

/** `--name value` lookup over argv (after ObsExportGuard stripped its own). */
double
FlagDouble(int argc, char** argv, const char* name, double fallback) {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag) {
            return std::atof(argv[i + 1]);
        }
    }
    return fallback;
}

std::size_t
FlagSize(int argc, char** argv, const char* name, std::size_t fallback) {
    return static_cast<std::size_t>(
        FlagDouble(argc, argv, name, static_cast<double>(fallback)));
}

std::string
FlagString(int argc, char** argv, const char* name, const char* fallback) {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag) {
            return argv[i + 1];
        }
    }
    return fallback;
}

bool
HasFlag(int argc, char** argv, const char* name) {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == flag) {
            return true;
        }
    }
    return false;
}

/**
 * The live state of one shard after @p event training events under chunk
 * churn: the base synthetic blob with ~@p churn of its chunks XOR-perturbed
 * per event, cumulatively. Pure in (item, event), so a later --restore-only
 * process recomputes the same bytes the persisting process saw.
 */
Blob
ChurnedState(const ShardItem& item, std::uint64_t event, double churn,
             std::size_t chunk_bytes) {
    Blob blob = SyntheticShardBytes(item, 1);
    const std::size_t chunks = (blob.size() + chunk_bytes - 1) / chunk_bytes;
    const auto per_event = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(chunks) * churn));
    for (std::uint64_t v = 2; v <= event; ++v) {
        for (std::size_t i = 0; i < per_event; ++i) {
            const std::size_t off = ((v * 131 + i * 977) % chunks) * chunk_bytes;
            const std::size_t end = std::min(off + chunk_bytes, blob.size());
            for (std::size_t b = off; b < end; ++b) {
                blob[b] ^= static_cast<std::uint8_t>(0xA5 ^ v);
            }
        }
    }
    return blob;
}

}  // namespace

int
main(int argc, char** argv) {
    const obs::ObsExportGuard obs_guard(argc, argv);
    const std::size_t ranks = FlagSize(argc, argv, "ranks", 4);
    const std::size_t events = FlagSize(argc, argv, "events", 3);
    const std::size_t straggler = FlagSize(argc, argv, "straggler", 2);
    const double spike_prob = FlagDouble(argc, argv, "spike-prob", 0.0);
    const double spike_s = FlagDouble(argc, argv, "latency-spike-s", 0.2);
    const double shard_deadline_s =
        FlagDouble(argc, argv, "shard-deadline-s", 0.0);
    const auto seed =
        static_cast<std::uint64_t>(FlagDouble(argc, argv, "seed", 7));
    const std::string ckpt_dir = FlagString(argc, argv, "ckpt-dir", "");
    const bool delta = HasFlag(argc, argv, "delta");
    const std::size_t delta_chunk_bytes =
        FlagSize(argc, argv, "delta-chunk-bytes", 64);
    const std::size_t max_delta_chain =
        FlagSize(argc, argv, "max-delta-chain", 8);
    const double churn = FlagDouble(argc, argv, "churn", 0.0);
    const bool restore_only = HasFlag(argc, argv, "restore-only");
    if (ranks == 0 || events == 0 || (restore_only && ckpt_dir.empty())) {
        std::printf("usage: cluster_persist [--ranks N] [--events N] "
                    "[--straggler R] [--spike-prob P] [--latency-spike-s S] "
                    "[--shard-deadline-s S] [--seed N] [--ckpt-dir DIR] "
                    "[--delta] [--delta-chunk-bytes N] [--max-delta-chain N] "
                    "[--churn F] [--restore-only]\n");
        return 2;
    }

    // PEC-shaped plan: dense + experts per rank, plus ballast on the
    // straggler so it is the bottleneck rank by construction (synthetic
    // scale: 1 planned MiB -> 1 KiB on disk).
    ShardPlan plan(ranks);
    for (RankId r = 0; r < ranks; ++r) {
        plan.Add(r, {"dense/" + std::to_string(r), 128 * kMiB, false});
        for (std::size_t e = 0; e < 8; ++e) {
            const std::size_t id = r * 8 + e;
            plan.Add(r, {"expert/" + std::to_string(id) + "/w", 32 * kMiB,
                         false});
        }
        if (r == straggler) {
            for (std::size_t b = 0; b < 4; ++b) {
                plan.Add(r, {"ballast/" + std::to_string(b), 128 * kMiB,
                             false});
            }
        }
    }

    // Modeled in-memory store by default; an on-disk FileStore when the run
    // must leave an auditable checkpoint directory behind for `moc_cli fsck`
    // and a later --restore-only process.
    std::unique_ptr<ObjectStore> backing;
    if (ckpt_dir.empty()) {
        backing = std::make_unique<PersistentStore>(StorageIoModel{
            .write_bandwidth = 50e6, .read_bandwidth = 200e6, .latency = 0.0});
    } else {
        backing = std::make_unique<FileStore>(ckpt_dir);
    }
    FaultyStore store(*backing, seed);
    if (spike_prob > 0.0) {
        StorageFaultProfile profile;
        profile.latency_spike = spike_prob;
        profile.latency_spike_seconds = spike_s;
        store.Arm(profile);
    }

    if (restore_only) {
        const auto manifest_blob = store.Get(kManifestKey);
        if (!manifest_blob.has_value()) {
            std::printf("restore: no meta/manifest in %s\n", ckpt_dir.c_str());
            return 1;
        }
        CheckpointManifest manifest;
        manifest.LoadFromJson(
            std::string(manifest_blob->begin(), manifest_blob->end()));
        const auto restore_plan = PlanClusterRestore(manifest);
        if (!restore_plan.has_value()) {
            std::printf("restore: no sealed generation\n");
            return 1;
        }
        const auto restored =
            ExecuteClusterRestore(manifest, store, *restore_plan);
        std::printf("restore: generation %zu, %zu shards, %zu degraded, "
                    "%zu damaged\n",
                    restored.generation, restored.shards_restored,
                    restored.degraded.size(), restored.damaged.size());
        // Where each key actually landed: the plan's chosen iteration,
        // overridden by any read-time fallback.
        std::map<std::string, std::size_t> restored_iter;
        for (const auto& shard : restore_plan->shards) {
            restored_iter[shard.key] = shard.iteration;
        }
        for (const auto& d : restored.degraded) {
            restored_iter[d.key] = d.restored_iteration;
            std::printf("degraded: %s planned @%zu restored @%zu (%s)\n",
                        d.key.c_str(), d.planned_iteration,
                        d.restored_iteration, d.reason.c_str());
        }
        if (!restored.damaged.empty()) {
            for (const auto& key : restored.damaged) {
                std::printf("damaged: %s\n", key.c_str());
            }
            return 1;
        }
        // Recompute the churned state each key should hold at its restored
        // iteration and compare byte-for-byte.
        std::size_t verified = 0;
        for (RankId r = 0; r < ranks; ++r) {
            for (const ShardItem& item : plan.Items(r)) {
                const std::string key =
                    "rank" + std::to_string(r) + "/" + item.key;
                const auto it = restored.blobs.find(key);
                const auto iter_it = restored_iter.find(key);
                if (it == restored.blobs.end() ||
                    iter_it == restored_iter.end()) {
                    std::printf("restore verify: %s missing\n", key.c_str());
                    return 1;
                }
                const Blob expect =
                    churn > 0.0
                        ? ChurnedState(item, iter_it->second, churn,
                                       delta_chunk_bytes)
                        : SyntheticShardBytes(item, iter_it->second);
                if (it->second != expect) {
                    std::printf("restore verify: %s differs at iteration "
                                "%zu\n",
                                key.c_str(), iter_it->second);
                    return 1;
                }
                ++verified;
            }
        }
        std::printf("restore verify: %zu shards byte-identical at their "
                    "restored iterations\n",
                    verified);
        return 0;
    }

    AgentCostModel cost;
    cost.snapshot_bandwidth = 100e6;
    cost.persist_bandwidth = 50e6;
    cost.time_scale = 1.0;
    ClusterEngineOptions opt;
    opt.shard_deadline_s = shard_deadline_s;
    opt.delta = delta;
    opt.delta_chunk_bytes = delta_chunk_bytes;
    opt.max_delta_chain = max_delta_chain;
    ClusterCheckpointEngine engine(store, ranks, cost, opt);

    std::printf("cluster_persist: %zu ranks, %zu events, straggler rank %zu"
                ", spike prob %.2f (%.3f s), shard deadline %.3f s"
                ", delta %s (chunk %zu, max chain %zu), churn %.3f\n",
                ranks, events, straggler, spike_prob, spike_s,
                shard_deadline_s, delta ? "on" : "off", delta_chunk_bytes,
                max_delta_chain, churn);

    std::map<std::string, std::uint64_t> version;
    std::uint64_t event_now = 0;
    const BlobProvider provider = [&](const ShardItem& item) {
        if (churn > 0.0) {
            return ChurnedState(item, event_now, churn, delta_chunk_bytes);
        }
        return SyntheticShardBytes(item, version[item.key]);
    };
    Table t({"generation", "sealed", "persisted", "deduped", "delta",
             "failures", "makespan (s)"});
    for (std::size_t event = 1; event <= events; ++event) {
        event_now = event;
        for (RankId r = 0; r < ranks; ++r) {
            for (const auto& item : plan.Items(r)) {
                ++version[item.key];  // everything trains: no dedup hits
            }
        }
        const auto stats = engine.Execute(plan, provider, event);
        t.AddRow({std::to_string(stats.generation),
                  stats.sealed ? "yes" : "no",
                  std::to_string(stats.keys_persisted),
                  std::to_string(stats.keys_deduped),
                  std::to_string(stats.keys_delta),
                  std::to_string(stats.persist_failures),
                  Table::Num(stats.total_makespan, 3)});
    }
    std::printf("%s", t.ToString().c_str());

    const auto snap = obs::MetricsRegistry::Instance().Snapshot();
    const auto stall_it = snap.counters.find("obs.stall.events");
    const std::uint64_t stalls =
        stall_it == snap.counters.end() ? 0 : stall_it->second;
    std::size_t journaled = 0;
    for (const auto& e : obs::EventJournal::Instance().Collect()) {
        journaled += e.kind == obs::EventKind::kStall ? 1 : 0;
    }
    std::printf("stall watchdog: %llu stall(s) fired, %zu journaled\n",
                static_cast<unsigned long long>(stalls), journaled);
    std::printf("expected: every generation seals; rank %zu is the "
                "straggler `moc_cli trace` names;\nlatency spikes over the "
                "shard deadline surface as `stall` journal events.\n",
                straggler);
    return 0;
}

/**
 * @file
 * `moc_cli report`: the run analyzer. Ingests a metrics JSON dump
 * (`--metrics-out`) and an event journal (`--events-out`) from any MoC
 * binary and prints:
 *
 *   - the recovery timeline (one row per fault, paired with its recovery,
 *     including how many keys restored degraded),
 *   - a storage-health section (retries, corruption, read repairs, injected
 *     faults, generation fallbacks — see docs/FAULT_MODEL.md),
 *   - the PLT trajectory against the Dynamic-K threshold, with bump markers,
 *   - a per-layer expert staleness / lost-token summary,
 *   - a measured-vs-predicted section that evaluates the paper's overhead
 *     model (src/core/overhead.h, Eq. 11-13) at the run's own operating
 *     point and reports residuals.
 *
 * A machine-readable JSON object follows the `--- machine-readable
 * (moc-report/1) ---` marker so tests and CI can check the numbers without
 * scraping tables; `--report-json <path>` additionally writes it to a file.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_lib.h"
#include "core/dynamic_k.h"
#include "core/overhead.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/table.h"

namespace moc::cli {

namespace {

/** The metrics dump, decoded back into registry-shaped containers. */
struct MetricsDump {
    std::map<std::string, std::string> meta;
    /** Numeric run-meta fields (clock_offset_ns), kept apart from the
        string table the meta section prints. */
    std::map<std::string, double> meta_numbers;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, obs::HistogramData> histograms;
    std::vector<obs::ExpertStat> experts;

    double Counter(const std::string& name) const {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    }

    const obs::HistogramData* Histogram(const std::string& name) const {
        const auto it = histograms.find(name);
        return it == histograms.end() ? nullptr : &it->second;
    }

    /** sum/count of a histogram, or 0 when absent/empty. */
    double HistogramMean(const std::string& name) const {
        const obs::HistogramData* h = Histogram(name);
        return (h == nullptr || h->count == 0)
                   ? 0.0
                   : h->sum / static_cast<double>(h->count);
    }

    double HistogramSum(const std::string& name) const {
        const obs::HistogramData* h = Histogram(name);
        return h == nullptr ? 0.0 : h->sum;
    }
};

MetricsDump
ParseMetricsDump(const std::string& text) {
    const json::Value root = json::Parse(text);
    if (!root.is_object()) {
        throw std::invalid_argument("metrics dump is not a JSON object");
    }
    MetricsDump dump;
    if (const json::Value* meta = root.Find("meta")) {
        for (const auto& [key, value] : meta->AsObject()) {
            if (value.is_string()) {
                dump.meta[key] = value.AsString();
            } else if (value.is_number()) {
                dump.meta_numbers[key] = value.AsNumber();
            }
        }
    }
    if (const json::Value* counters = root.Find("counters")) {
        for (const auto& [name, value] : counters->AsObject()) {
            dump.counters[name] = value.AsNumber();
        }
    }
    if (const json::Value* gauges = root.Find("gauges")) {
        for (const auto& [name, value] : gauges->AsObject()) {
            dump.gauges[name] = value.AsNumber();
        }
    }
    if (const json::Value* histograms = root.Find("histograms")) {
        for (const auto& [name, value] : histograms->AsObject()) {
            obs::HistogramData h;
            h.count = value.At("count").AsU64();
            h.sum = value.At("sum").AsNumber();
            for (const json::Value& bucket : value.At("buckets").AsArray()) {
                const json::Value& le = bucket.At("le");
                if (le.is_number()) {  // the "+inf" bucket has a string le
                    h.bounds.push_back(le.AsNumber());
                }
                h.bucket_counts.push_back(bucket.At("count").AsU64());
            }
            dump.histograms[name] = std::move(h);
        }
    }
    if (const json::Value* experts = root.Find("experts")) {
        for (const json::Value& cell : experts->AsArray()) {
            obs::ExpertStat stat;
            stat.layer = static_cast<std::uint32_t>(cell.At("layer").AsNumber());
            stat.expert = static_cast<std::uint32_t>(cell.At("expert").AsNumber());
            stat.last_snapshot_iteration = cell.At("last_snapshot_iteration").AsU64();
            stat.last_persist_iteration = cell.At("last_persist_iteration").AsU64();
            stat.snapshot_staleness = cell.At("snapshot_staleness").AsU64();
            stat.persist_staleness = cell.At("persist_staleness").AsU64();
            stat.snapshots = cell.At("snapshots").AsU64();
            stat.persists = cell.At("persists").AsU64();
            stat.snapshot_bytes = cell.At("snapshot_bytes").AsU64();
            stat.persist_bytes = cell.At("persist_bytes").AsU64();
            stat.lost_tokens = cell.At("lost_tokens").AsU64();
            dump.experts.push_back(stat);
        }
    }
    return dump;
}

/** One fault paired with the recovery that resolved it. */
struct RecoveryRecord {
    std::uint64_t fault_iteration = 0;
    std::string failed_nodes;
    std::uint64_t restart_iteration = 0;
    double duration_s = 0.0;
    std::uint64_t bytes = 0;
    double plt_after = -1.0;
    std::uint64_t k_after = 0;
    bool k_bumped = false;
    /** Keys restored from an older generation than planned. */
    std::uint64_t degraded_keys = 0;
    /** Whole-generation fallbacks during this recovery. */
    std::uint64_t generation_fallbacks = 0;
};

std::vector<RecoveryRecord>
PairRecoveries(const std::vector<obs::JournalEvent>& events) {
    std::vector<RecoveryRecord> records;
    std::optional<RecoveryRecord> open;
    double begin_wall = 0.0;
    for (const obs::JournalEvent& e : events) {
        switch (e.kind) {
            case obs::EventKind::kFault:
                open = RecoveryRecord{};
                open->fault_iteration = e.iteration;
                open->failed_nodes = e.detail;
                begin_wall = e.wall_s;
                break;
            case obs::EventKind::kRecoveryBegin:
                if (open) {
                    begin_wall = e.wall_s;
                }
                break;
            case obs::EventKind::kDynamicKBump:
                if (open) {
                    open->k_bumped = true;
                }
                break;
            case obs::EventKind::kDegradedRecovery:
                if (open) {
                    // Per-key degradations carry "key=..."; generation-level
                    // fallbacks carry a "generation ..." detail.
                    if (e.detail.rfind("key=", 0) == 0) {
                        ++open->degraded_keys;
                    } else {
                        ++open->generation_fallbacks;
                    }
                }
                break;
            case obs::EventKind::kRecoveryEnd:
                if (open) {
                    open->restart_iteration = e.iteration;
                    open->duration_s = e.wall_s - begin_wall;
                    open->bytes = e.bytes;
                    open->plt_after = e.plt;
                    open->k_after = e.k;
                    records.push_back(*open);
                    open.reset();
                }
                break;
            default:
                break;
        }
    }
    return records;
}

/** A PLT sample point on the trajectory. */
struct PltSample {
    std::uint64_t iteration = 0;
    double plt = 0.0;
    const char* source = "";  // "ckpt" or "recovery"
    std::uint64_t bumped_to_k = 0;  // 0 = no Dynamic-K bump at this point
};

std::vector<PltSample>
PltTrajectory(const std::vector<obs::JournalEvent>& events) {
    std::vector<PltSample> samples;
    for (const obs::JournalEvent& e : events) {
        if (e.kind == obs::EventKind::kCkptEnd && e.plt >= 0.0) {
            samples.push_back({e.iteration, e.plt, "ckpt", 0});
        } else if (e.kind == obs::EventKind::kRecoveryEnd && e.plt >= 0.0) {
            samples.push_back({e.iteration, e.plt, "recovery", 0});
        } else if (e.kind == obs::EventKind::kDynamicKBump && !samples.empty()) {
            samples.back().bumped_to_k = e.k;
        }
    }
    return samples;
}

/**
 * The checkpoint interval the run actually used: the most common forward
 * gap between consecutive `ckpt_end` iterations (recoveries rewind the
 * iteration counter, so backward gaps are skipped). Falls back to
 * I_total / checkpoints when the journal has too few checkpoints.
 */
double
InferCheckpointInterval(const std::vector<obs::JournalEvent>& events,
                        double i_total, double ckpt_events) {
    std::map<std::uint64_t, std::size_t> gap_counts;
    std::optional<std::uint64_t> prev;
    for (const obs::JournalEvent& e : events) {
        if (e.kind != obs::EventKind::kCkptEnd || e.iteration == 0) {
            continue;  // iteration 0 is the initial full checkpoint
        }
        if (prev && e.iteration > *prev) {
            ++gap_counts[e.iteration - *prev];
        }
        prev = e.iteration;
    }
    std::uint64_t best_gap = 0;
    std::size_t best_count = 0;
    for (const auto& [gap, count] : gap_counts) {
        if (count > best_count) {
            best_gap = gap;
            best_count = count;
        }
    }
    if (best_gap > 0) {
        return static_cast<double>(best_gap);
    }
    return i_total / std::max(1.0, ckpt_events);
}

std::string
Percent(double fraction, int digits = 3) {
    return Table::Num(fraction * 100.0, digits) + "%";
}

/** A fixed-width bar with a threshold tick, for the PLT trajectory. */
std::string
PltBar(double plt, double threshold, double scale_max, std::size_t width) {
    std::string bar(width, ' ');
    const auto clamp_col = [&](double v) {
        const double frac = scale_max > 0.0 ? v / scale_max : 0.0;
        const auto col = static_cast<std::size_t>(frac * static_cast<double>(width));
        return std::min(col, width - 1);
    };
    const std::size_t filled = plt > 0.0 ? clamp_col(plt) + 1 : 0;
    for (std::size_t i = 0; i < filled; ++i) {
        bar[i] = '#';
    }
    bar[clamp_col(threshold)] = '|';
    return bar;
}

}  // namespace

int
RunReport(const Args& args, std::ostream& out) {
    const std::vector<std::string> metrics_paths = args.GetAll("metrics");
    const std::vector<std::string> events_paths = args.GetAll("events");
    if (metrics_paths.empty()) {
        out << "usage: moc_cli report --metrics <metrics.json> "
               "[--metrics <role2.json> ...]\n"
               "       [--events <events.jsonl>] [--events <role2.jsonl> ...]\n"
               "       [--plt-threshold X] [--report-json <path>]\n";
        return 2;
    }

    // Per-role metrics dumps, in CLI order. The coordinator's dump (by
    // role metadata) anchors the single-run sections below; with one
    // --metrics this is exactly the old single-file behavior.
    std::vector<std::pair<std::string, MetricsDump>> role_dumps;
    std::vector<obs::JournalEvent> events;
    std::size_t merged_skipped = 0;
    std::size_t event_roles = 0;
    double threshold = kDefaultPltThreshold;
    try {
        for (const std::string& path : metrics_paths) {
            MetricsDump d = ParseMetricsDump(ReadFileOrThrow(path));
            const auto it = d.meta.find("role");
            std::string role = it != d.meta.end() && !it->second.empty()
                                   ? it->second
                                   : obs::RoleFromFilename(path);
            role_dumps.emplace_back(std::move(role), std::move(d));
        }
        if (events_paths.size() == 1) {
            // Single journal: the strict parser stays the contract.
            events = obs::ParseEventsJsonl(ReadFileOrThrow(events_paths[0]));
            event_roles = 1;
        } else if (events_paths.size() > 1) {
            // Multiple journals: rebase onto the coordinator clock and
            // interleave. Tolerant parse — a SIGKILL'd rank's torn tail
            // must not sink the cluster post-mortem.
            std::vector<obs::RoleEvents> role_events;
            for (const std::string& path : events_paths) {
                role_events.push_back(obs::ParseRoleEventsJsonl(
                    ReadFileOrThrow(path), obs::RoleFromFilename(path)));
            }
            obs::MergedEvents merged = obs::MergeRoleEvents(role_events);
            merged_skipped = merged.skipped_lines;
            event_roles = merged.roles;
            events.reserve(merged.events.size());
            for (obs::ClusterEvent& ce : merged.events) {
                // Re-stamp onto the merged zero so downstream timing
                // (recovery durations, checkpoint intervals) spans roles.
                ce.event.wall_s =
                    static_cast<double>(ce.abs_ns - merged.base_ns) / 1e9;
                events.push_back(std::move(ce.event));
            }
        }
        const std::string t = args.Get("plt-threshold", "");
        if (!t.empty()) {
            threshold = std::stod(t);
        }
    } catch (const std::exception& e) {
        // Missing or unparsable inputs are a usage-level failure (exit 2,
        // like fsck), distinct from analysis findings.
        out << "error: " << e.what() << "\n";
        return 2;
    }
    const MetricsDump& dump = [&]() -> const MetricsDump& {
        for (const auto& [role, d] : role_dumps) {
            if (role == "coordinator") {
                return d;
            }
        }
        return role_dumps.front().second;
    }();

    out << "MoC run report\n";
    if (merged_skipped > 0) {
        out << "warning: skipped " << merged_skipped
            << " malformed journal line(s) while merging\n";
    }
    Table meta({"meta", "value"});
    for (const char* key : {"schema", "build_type", "git_sha", "config_digest",
                            "role", "command_line"}) {
        const auto it = dump.meta.find(key);
        meta.AddRow({key, it == dump.meta.end() || it->second.empty()
                              ? "-"
                              : it->second});
    }
    out << meta.ToString();

    // -- recovery timeline ---------------------------------------------------
    const std::vector<RecoveryRecord> recoveries = PairRecoveries(events);
    out << "\n== recovery timeline ==\n";
    if (events.empty()) {
        out << "(no event journal given; pass --events <events.jsonl>)\n";
    } else if (recoveries.empty()) {
        out << "no faults recorded\n";
    } else {
        Table t({"#", "fault iter", "nodes", "restart iter", "lost iters",
                 "recovery (s)", "restored", "degraded", "PLT after",
                 "K after"});
        for (std::size_t i = 0; i < recoveries.size(); ++i) {
            const RecoveryRecord& r = recoveries[i];
            const std::uint64_t lost = r.fault_iteration > r.restart_iteration
                                           ? r.fault_iteration - r.restart_iteration
                                           : 0;
            std::string k_after = std::to_string(r.k_after);
            if (r.k_bumped) {
                k_after += " (bumped)";
            }
            std::string degraded = std::to_string(r.degraded_keys) + " keys";
            if (r.generation_fallbacks > 0) {
                degraded +=
                    ", " + std::to_string(r.generation_fallbacks) + " gen";
            }
            t.AddRow({std::to_string(i + 1), std::to_string(r.fault_iteration),
                      r.failed_nodes, std::to_string(r.restart_iteration),
                      std::to_string(lost), Table::Num(r.duration_s, 4),
                      FormatBytes(r.bytes), degraded, Percent(r.plt_after),
                      k_after});
        }
        out << t.ToString();
    }

    // -- PLT trajectory ------------------------------------------------------
    const std::vector<PltSample> trajectory = PltTrajectory(events);
    double max_plt = 0.0;
    for (const PltSample& s : trajectory) {
        max_plt = std::max(max_plt, s.plt);
    }
    out << "\n== PLT trajectory (threshold " << Percent(threshold) << ") ==\n";
    if (trajectory.empty()) {
        out << "no PLT samples in the journal\n";
    } else {
        const double scale_max = std::max(max_plt, threshold) * 1.25;
        Table t({"iter", "event", "PLT", ""});
        for (const PltSample& s : trajectory) {
            std::string annotation = PltBar(s.plt, threshold, scale_max, 32);
            if (s.bumped_to_k > 0) {
                annotation += " <- Dynamic-K -> " + std::to_string(s.bumped_to_k);
            }
            t.AddRow({std::to_string(s.iteration), s.source, Percent(s.plt),
                      annotation});
        }
        out << t.ToString();
        out << "peak PLT " << Percent(max_plt) << " ("
            << (max_plt <= threshold ? "within" : "EXCEEDS") << " the "
            << Percent(threshold) << " budget)\n";
    }

    // -- expert staleness ----------------------------------------------------
    out << "\n== expert staleness ==\n";
    if (dump.experts.empty()) {
        out << "no per-expert telemetry in the metrics dump\n";
    } else {
        std::map<std::size_t, std::vector<const obs::ExpertStat*>> layers;
        for (const obs::ExpertStat& cell : dump.experts) {
            layers[cell.layer].push_back(&cell);
        }
        Table t({"layer", "experts", "snap stale (mean/max)",
                 "persist stale (mean/max)", "snapshots", "lost tokens"});
        for (const auto& [layer, cells] : layers) {
            double snap_sum = 0.0, persist_sum = 0.0;
            std::uint64_t snap_max = 0, persist_max = 0, snapshots = 0, lost = 0;
            for (const obs::ExpertStat* c : cells) {
                snap_sum += static_cast<double>(c->snapshot_staleness);
                persist_sum += static_cast<double>(c->persist_staleness);
                snap_max = std::max(snap_max, c->snapshot_staleness);
                persist_max = std::max(persist_max, c->persist_staleness);
                snapshots += c->snapshots;
                lost += c->lost_tokens;
            }
            const auto n = static_cast<double>(cells.size());
            t.AddRow({std::to_string(layer), std::to_string(cells.size()),
                      Table::Num(snap_sum / n, 1) + " / " + std::to_string(snap_max),
                      Table::Num(persist_sum / n, 1) + " / " +
                          std::to_string(persist_max),
                      std::to_string(snapshots), std::to_string(lost)});
        }
        out << t.ToString();

        std::vector<const obs::ExpertStat*> ranked;
        for (const obs::ExpertStat& cell : dump.experts) {
            if (cell.lost_tokens > 0) {
                ranked.push_back(&cell);
            }
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const obs::ExpertStat* a, const obs::ExpertStat* b) {
                      return a->lost_tokens > b->lost_tokens;
                  });
        if (!ranked.empty()) {
            Table top({"layer", "expert", "lost tokens", "snap stale",
                       "last snapshot iter"});
            const std::size_t n = std::min<std::size_t>(5, ranked.size());
            for (std::size_t i = 0; i < n; ++i) {
                const obs::ExpertStat* c = ranked[i];
                top.AddRow({std::to_string(c->layer), std::to_string(c->expert),
                            std::to_string(c->lost_tokens),
                            std::to_string(c->snapshot_staleness),
                            std::to_string(c->last_snapshot_iteration)});
            }
            out << "top " << n << " experts by lost tokens:\n" << top.ToString();
        }
    }

    // -- storage health ------------------------------------------------------
    // The resilient-store / fault-injection counters (docs/FAULT_MODEL.md).
    const double retries = dump.Counter("store.retries_total");
    const double corrupt_reads = dump.Counter("store.corrupt_reads_total");
    const double read_repairs = dump.Counter("store.read_repairs_total");
    const double put_verify_failures =
        dump.Counter("store.put_verify_failures_total");
    const double store_timeouts = dump.Counter("store.timeouts_total");
    const double shard_failures = dump.Counter("ckpt.persist_shard_failures");
    const double degraded_keys = dump.Counter("recovery.degraded_keys");
    const double generation_fallbacks =
        dump.Counter("recovery.generation_fallbacks");
    double injected_faults = 0.0;
    for (const char* name :
         {"faultystore.transient_errors", "faultystore.torn_writes",
          "faultystore.bit_flips", "faultystore.lost_writes",
          "faultystore.corrupt_reads", "faultystore.latency_spikes"}) {
        injected_faults += dump.Counter(name);
    }
    std::uint64_t storage_fault_events = 0;
    for (const obs::JournalEvent& e : events) {
        storage_fault_events += e.kind == obs::EventKind::kStorageFault ? 1 : 0;
    }
    const bool storage_trouble = retries + corrupt_reads + read_repairs +
                                     put_verify_failures + store_timeouts +
                                     shard_failures + degraded_keys +
                                     generation_fallbacks + injected_faults >
                                 0.0;
    out << "\n== storage health ==\n";
    if (!storage_trouble) {
        out << "healthy: no retries, corruption, or degraded recoveries\n";
    } else {
        Table st({"storage", "count"});
        st.AddRow({"injected faults", Table::Num(injected_faults, 0)});
        st.AddRow({"retries", Table::Num(retries, 0)});
        st.AddRow({"corrupt reads", Table::Num(corrupt_reads, 0)});
        st.AddRow({"read repairs", Table::Num(read_repairs, 0)});
        st.AddRow({"put verify failures", Table::Num(put_verify_failures, 0)});
        st.AddRow({"timeouts", Table::Num(store_timeouts, 0)});
        st.AddRow({"persist shard failures", Table::Num(shard_failures, 0)});
        st.AddRow({"degraded recovery keys", Table::Num(degraded_keys, 0)});
        st.AddRow({"generation fallbacks", Table::Num(generation_fallbacks, 0)});
        out << st.ToString();
        if (storage_fault_events > 0) {
            out << storage_fault_events
                << " storage_fault event(s) in the journal\n";
        }
    }
    // Delta-encoding effectiveness (cluster.delta.*, docs/OBSERVABILITY.md):
    // how much of the persist traffic the changed-chunk path absorbed.
    const double delta_shards = dump.Counter("cluster.delta.shards");
    const double delta_bytes_written =
        dump.Counter("cluster.delta.bytes_written");
    const double delta_bytes_saved = dump.Counter("cluster.delta.bytes_saved");
    const double delta_forced_full = dump.Counter("cluster.delta.forced_full");
    if (delta_shards > 0.0 || delta_forced_full > 0.0) {
        out << "delta encoding: " << Table::Num(delta_shards, 0)
            << " shard(s) as deltas, " << Table::Num(delta_bytes_written, 0)
            << " bytes written, " << Table::Num(delta_bytes_saved, 0)
            << " bytes saved, " << Table::Num(delta_forced_full, 0)
            << " forced full write(s)\n";
    }

    // -- observability health ------------------------------------------------
    // Dropped trace/journal records mean the exports this report reads are
    // incomplete — flag it loudly rather than report over a silent gap.
    const double trace_dropped = dump.Counter("obs.trace.dropped");
    const double journal_dropped = dump.Counter("obs.journal.dropped");
    std::uint64_t stall_events = 0;
    std::uint64_t peer_deaths = 0;
    for (const obs::JournalEvent& e : events) {
        stall_events += e.kind == obs::EventKind::kStall ? 1 : 0;
        peer_deaths += e.kind == obs::EventKind::kPeerDeath ? 1 : 0;
    }
    if (trace_dropped > 0.0) {
        out << "\nWARNING: " << Table::Num(trace_dropped, 0)
            << " trace span(s) dropped (ring overflow) — the exported trace "
               "is a suffix of the run\n";
    }
    if (journal_dropped > 0.0) {
        out << "\nWARNING: " << Table::Num(journal_dropped, 0)
            << " journal event(s) dropped (buffer full) — the event journal "
               "is a prefix of the run\n";
    }
    // The live scrape endpoint's own counters (obs/http_endpoint.h): how
    // hard the run was being watched, and whether scrapers were shed.
    const double http_requests = dump.Counter("obs.http.requests");
    const double http_errors = dump.Counter("obs.http.errors");
    const double http_shed = dump.Counter("obs.http.shed");
    if (http_requests > 0.0 || http_shed > 0.0) {
        out << "\nlive endpoint: " << Table::Num(http_requests, 0)
            << " request(s) served, " << Table::Num(http_errors, 0)
            << " error(s), " << Table::Num(http_shed, 0) << " shed\n";
    }
    if (http_shed > 0.0) {
        out << "WARNING: " << Table::Num(http_shed, 0)
            << " scrape connection(s) shed (worker saturated) — scrapes "
               "were dropped, never blocked on\n";
    }
    if (stall_events > 0) {
        out << "\n" << stall_events
            << " stall event(s) in the journal (checkpoint ops over their "
               "deadline budget; run `moc_cli trace` for the critical path)\n";
    }
    if (peer_deaths > 0) {
        out << "\n" << peer_deaths
            << " peer_death event(s) in the journal (ranks declared dead by "
               "EOF or heartbeat timeout; generations they left incomplete "
               "stay unsealed)\n";
    }

    // -- cluster health ------------------------------------------------------
    // The cross-process view (docs/OBSERVABILITY.md, "Cluster plane"):
    // per-role clock offsets and telemetry counters from the merged metrics,
    // straggler and peer-death events from the merged journal.
    std::vector<const obs::JournalEvent*> straggler_events;
    std::vector<const obs::JournalEvent*> death_events;
    std::vector<const obs::JournalEvent*> membership_events;
    std::size_t rejoin_count = 0;
    for (const obs::JournalEvent& e : events) {
        if (e.kind == obs::EventKind::kStraggler) {
            straggler_events.push_back(&e);
        } else if (e.kind == obs::EventKind::kPeerDeath) {
            death_events.push_back(&e);
        } else if (e.kind == obs::EventKind::kMembershipChange ||
                   e.kind == obs::EventKind::kRejoin) {
            membership_events.push_back(&e);
            rejoin_count += e.kind == obs::EventKind::kRejoin ? 1 : 0;
        }
    }
    const bool cluster_run = role_dumps.size() > 1 || event_roles > 1 ||
                             !straggler_events.empty() ||
                             !membership_events.empty();
    double telemetry_sent = 0.0;
    double telemetry_dropped = 0.0;
    for (const auto& [role, d] : role_dumps) {
        telemetry_sent += d.Counter("obs.telemetry.sent");
        telemetry_dropped += d.Counter("obs.telemetry.dropped");
    }
    if (cluster_run) {
        out << "\n== cluster health ==\n";
        Table roles({"role", "clock offset (ms)", "telemetry sent",
                     "telemetry dropped", "stragglers seen"});
        for (const auto& [role, d] : role_dumps) {
            const auto off = d.meta_numbers.find("clock_offset_ns");
            roles.AddRow(
                {role,
                 off == d.meta_numbers.end()
                     ? "-"
                     : Table::Num(off->second / 1e6, 3),
                 Table::Num(d.Counter("obs.telemetry.sent"), 0),
                 Table::Num(d.Counter("obs.telemetry.dropped"), 0),
                 Table::Num(d.Counter("obs.cluster.stragglers"), 0)});
        }
        out << roles.ToString();
        if (telemetry_dropped > 0.0) {
            out << "WARNING: " << Table::Num(telemetry_dropped, 0)
                << " telemetry sample(s) shed (publisher never blocks; the "
                   "live cluster view lost freshness, not correctness)\n";
        }
        if (straggler_events.empty()) {
            out << "no stragglers flagged\n";
        } else {
            Table st({"t (s)", "rank", "gen", "iter", "detail"});
            for (const obs::JournalEvent* e : straggler_events) {
                st.AddRow({Table::Num(e->wall_s, 3),
                           std::to_string(e->scope),
                           std::to_string(e->gen),
                           std::to_string(e->iteration), e->detail});
            }
            out << "straggler event(s) flagged DURING the run:\n"
                << st.ToString();
        }
        if (!death_events.empty()) {
            Table dt({"t (s)", "role", "peer", "detail"});
            for (const obs::JournalEvent* e : death_events) {
                dt.AddRow({Table::Num(e->wall_s, 3),
                           e->role.empty() ? "-" : e->role,
                           std::to_string(e->scope), e->detail});
            }
            out << "peer death attribution:\n" << dt.ToString();
        }
        // The elastic membership timeline: every state transition the
        // coordinator's MembershipTable journaled, in merged-clock order —
        // how an operator reads a death -> evict -> rejoin cycle after the
        // fact (docs/FAULT_MODEL.md, "Elastic recovery").
        if (!membership_events.empty()) {
            Table mt({"t (s)", "kind", "rank", "detail"});
            for (const obs::JournalEvent* e : membership_events) {
                mt.AddRow({Table::Num(e->wall_s, 3),
                           e->kind == obs::EventKind::kRejoin
                               ? "rejoin"
                               : "membership_change",
                           std::to_string(e->scope), e->detail});
            }
            out << "membership timeline (" << membership_events.size()
                << " transition(s), " << rejoin_count << " rejoin(s)):\n"
                << mt.ToString();
        }
    }

    // -- overhead model ------------------------------------------------------
    // Operating point measured from the run itself.
    const double i_total = dump.Counter("train.iterations");
    const double faults = dump.Counter("faults.injected");
    const double lambda = i_total > 0.0 ? faults / i_total : 0.0;
    const double t_iter = dump.HistogramMean("train.iteration_seconds");
    const double o_save = dump.HistogramMean("ckpt.duration_seconds");
    const double o_restart = dump.HistogramMean("recovery.duration_seconds");
    const double i_ckpt =
        InferCheckpointInterval(events, i_total, dump.Counter("ckpt.events"));

    FaultToleranceModel model;
    model.i_total = i_total;
    model.lambda = lambda;
    model.t_iter = t_iter;
    model.o_restart = o_restart;

    const double predicted_faults = ExpectedFaults(model);
    const double predicted_overhead =
        i_ckpt > 0.0 ? TotalCheckpointOverhead(model, o_save, i_ckpt) : 0.0;
    const bool optimal_defined = lambda > 0.0 && t_iter > 0.0 && o_save > 0.0;
    const double optimal_interval =
        optimal_defined ? OptimalInterval(model, o_save) : 0.0;

    const double ckpt_seconds = dump.HistogramSum("ckpt.duration_seconds");
    const double recovery_seconds = dump.HistogramSum("recovery.duration_seconds");
    const double replay_seconds =
        dump.Counter("faults.replayed_iterations") * t_iter;
    const double measured_overhead = ckpt_seconds + recovery_seconds + replay_seconds;
    const double residual_overhead = measured_overhead - predicted_overhead;

    out << "\n== overhead model (measured vs Eq. 11-13) ==\n";
    Table op({"operating point", "value"});
    op.AddRow({"I_total (iterations)", Table::Num(i_total, 0)});
    op.AddRow({"lambda (faults/iter)", Table::Num(lambda, 6)});
    op.AddRow({"t_iter (s)", Table::Num(t_iter, 6)});
    op.AddRow({"O_save (s/ckpt)", Table::Num(o_save, 6)});
    op.AddRow({"O_restart (s/fault)", Table::Num(o_restart, 6)});
    op.AddRow({"I_ckpt (iters)", Table::Num(i_ckpt, 1)});
    out << op.ToString();
    if (lambda == 0.0) {
        out << "note: fault-free run; fault terms of the model are zero\n";
    }
    Table cmp({"quantity", "predicted", "measured", "residual"});
    cmp.AddRow({"faults (Eq. 11)", Table::Num(predicted_faults, 2),
                Table::Num(faults, 0), Table::Num(faults - predicted_faults, 2)});
    cmp.AddRow({"overhead (Eq. 12/13, s)", Table::Num(predicted_overhead, 4),
                Table::Num(measured_overhead, 4),
                Table::Num(residual_overhead, 4)});
    out << cmp.ToString();
    out << "measured overhead = checkpointing " << Table::Num(ckpt_seconds, 4)
        << "s + recovery " << Table::Num(recovery_seconds, 4) << "s + replay "
        << Table::Num(replay_seconds, 4) << "s\n";
    if (optimal_defined) {
        out << "optimal interval I* (Eq. 13) = " << Table::Num(optimal_interval, 1)
            << " iterations (run used " << Table::Num(i_ckpt, 1) << ")\n";
    }
    if (const obs::HistogramData* iter_h =
            dump.Histogram("train.iteration_seconds")) {
        out << "iteration seconds p50/p95/p99: "
            << Table::Num(obs::HistogramP50(*iter_h), 6) << " / "
            << Table::Num(obs::HistogramP95(*iter_h), 6) << " / "
            << Table::Num(obs::HistogramP99(*iter_h), 6) << "\n";
    }

    // -- machine-readable section -------------------------------------------
    std::uint64_t bumps = 0;
    for (const obs::JournalEvent& e : events) {
        bumps += e.kind == obs::EventKind::kDynamicKBump ? 1 : 0;
    }
    json::Writer machine;
    machine.BeginObject().Field("schema", "moc-report/1")
        .Key("operating_point").BeginObject().Field("i_total", i_total)
        .Field("lambda", lambda).Field("t_iter", t_iter).Field("o_save", o_save)
        .Field("o_restart", o_restart).Field("i_ckpt", i_ckpt).EndObject()
        .Key("predicted").BeginObject()
        .Field("expected_faults", predicted_faults)
        .Field("total_overhead_s", predicted_overhead)
        .Key("optimal_interval_iters");
    if (optimal_defined) {
        machine.Put(optimal_interval);
    } else {
        machine.Null();
    }
    machine.EndObject().Key("measured").BeginObject().Field("faults", faults)
        .Field("overhead_s", measured_overhead)
        .Field("ckpt_seconds", ckpt_seconds)
        .Field("recovery_seconds", recovery_seconds)
        .Field("replay_seconds", replay_seconds).EndObject()
        .Key("residual").BeginObject()
        .Field("faults", faults - predicted_faults)
        .Field("overhead_s", residual_overhead).EndObject()
        .Key("plt").BeginObject().Field("peak", max_plt)
        .Field("threshold", threshold)
        .Field("within_budget", max_plt <= threshold).EndObject()
        .Key("storage").BeginObject().Field("injected_faults", injected_faults)
        .Field("retries", retries).Field("corrupt_reads", corrupt_reads)
        .Field("read_repairs", read_repairs)
        .Field("put_verify_failures", put_verify_failures)
        .Field("timeouts", store_timeouts)
        .Field("persist_shard_failures", shard_failures)
        .Field("degraded_keys", degraded_keys)
        .Field("generation_fallbacks", generation_fallbacks)
        .Field("storage_fault_events", storage_fault_events)
        .Field("delta_shards", delta_shards)
        .Field("delta_bytes_written", delta_bytes_written)
        .Field("delta_bytes_saved", delta_bytes_saved)
        .Field("delta_forced_full", delta_forced_full).EndObject()
        .Key("events").BeginObject().Field("total", events.size())
        .Field("recoveries", recoveries.size()).Field("dynamic_k_bumps", bumps)
        .Field("stalls", stall_events).Field("peer_deaths", peer_deaths)
        .EndObject()
        .Key("cluster").BeginObject().Field("metrics_roles", role_dumps.size())
        .Field("event_roles", event_roles)
        .Field("skipped_lines", merged_skipped)
        .Field("telemetry_sent", telemetry_sent)
        .Field("telemetry_dropped", telemetry_dropped)
        .Field("straggler_events", straggler_events.size())
        .Field("membership_changes",
               membership_events.size() - rejoin_count)
        .Field("rejoins", rejoin_count)
        .Key("stragglers").BeginArray();
    for (const obs::JournalEvent* e : straggler_events) {
        machine.BeginObject().Field("rank", e->scope).Field("gen", e->gen)
            .Field("seq", e->seq).Field("detail", e->detail).EndObject();
    }
    machine.EndArray().EndObject()
        .Key("obs_health").BeginObject().Field("trace_dropped", trace_dropped)
        .Field("journal_dropped", journal_dropped)
        .Field("http_requests", http_requests).Field("http_errors", http_errors)
        .Field("http_shed", http_shed).EndObject().EndObject().EndLine();
    out << "\n--- machine-readable (moc-report/1) ---\n" << machine.str();

    const std::string report_json = args.Get("report-json", "");
    if (!report_json.empty() &&
        !obs::WriteTextFile(report_json, machine.str(), "report JSON")) {
        out << "error: cannot write '" << report_json << "'\n";
        return 1;
    }
    return 0;
}

}  // namespace moc::cli

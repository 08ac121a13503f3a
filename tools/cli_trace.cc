/**
 * @file
 * `moc_cli trace`: the flight-recorder analyzer. Ingests a Chrome trace
 * produced by `--trace-out` (whose spans carry the TraceContext in their
 * `args`, see obs/critical_path.h) and prints, per checkpoint generation:
 *
 *   - the critical path (serialize -> snapshot -> persist -> verify ->
 *     seal), with per-segment waits and effective durations that sum to
 *     the measured wall time,
 *   - a per-rank profile with phase totals, shard counts, and slack
 *     against the straggler rank,
 *   - a per-phase O_save attribution against Eq. 11-13: each phase's
 *     share of the checkpoint cost scaled to run-level overhead by
 *     I_total / I_ckpt (src/core/overhead.h),
 *   - stall events from the journal (`--events`), matched by generation.
 *
 * `--annotated-out <path>` re-exports the trace with one Chrome `pid` lane
 * per generation so chrome://tracing groups each checkpoint event.
 * A machine-readable JSON object follows the `--- machine-readable
 * (moc-trace/1) ---` marker; `--trace-json <path>` also writes it to a
 * file. Missing or unparsable inputs exit with code 2.
 */

#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cli_lib.h"
#include "core/overhead.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/merge.h"
#include "util/json.h"
#include "util/table.h"

namespace moc::cli {

namespace {

double
NsToS(std::uint64_t ns) {
    return static_cast<double>(ns) / 1e9;
}

std::string
Ms(std::uint64_t ns) {
    return Table::Num(static_cast<double>(ns) / 1e6, 3);
}

/**
 * The checkpoint interval in iterations, inferred from the gaps between
 * consecutive generation ids (generations are stamped with their
 * iteration). Modal gap; 0 when fewer than two generations.
 */
double
InferIntervalFromGenerations(const obs::FlightAnalysis& analysis) {
    std::map<std::uint64_t, std::size_t> gap_counts;
    for (std::size_t i = 1; i < analysis.generations.size(); ++i) {
        const std::uint64_t prev = analysis.generations[i - 1].generation;
        const std::uint64_t cur = analysis.generations[i].generation;
        if (cur > prev) {
            ++gap_counts[cur - prev];
        }
    }
    std::uint64_t best_gap = 0;
    std::size_t best_count = 0;
    for (const auto& [gap, count] : gap_counts) {
        if (count > best_count) {
            best_gap = gap;
            best_count = count;
        }
    }
    return static_cast<double>(best_gap);
}

/** Re-emits the trace with pid = generation, so each checkpoint event gets
    its own lane group in chrome://tracing. */
std::string
AnnotatedChromeTrace(const std::vector<obs::FlightSpan>& spans) {
    json::Writer w;
    w.BeginObject().Key("traceEvents").BeginArray();
    std::set<std::uint64_t> named;
    for (const obs::FlightSpan& s : spans) {
        const std::uint64_t pid = s.generation;  // lane 0 = non-checkpoint
        if (s.generation != 0 && named.insert(s.generation).second) {
            obs::WriteChromeLaneName(
                w, pid, "generation " + std::to_string(s.generation));
        }
        obs::WriteChromeSpan(w, s, pid, s.start_ns);
    }
    w.EndArray().Field("displayTimeUnit", "ms").EndObject().EndLine();
    return w.Take();
}

}  // namespace

int
RunTrace(const Args& args, std::ostream& out) {
    const std::vector<std::string> trace_paths = args.GetAll("trace");
    const std::vector<std::string> events_paths = args.GetAll("events");
    if (trace_paths.empty()) {
        out << "usage: moc_cli trace --trace <chrome-trace.json> "
               "[--trace <...>] [--events <events.jsonl>] [--events <...>]\n"
               "       [--annotated-out <chrome-trace.json>] "
               "[--trace-json <path>]\n"
               "       [--i-total N] [--lambda X] [--t-iter X] [--i-ckpt N]\n";
        return 2;
    }
    const bool merged_traces = trace_paths.size() > 1;
    const bool merged_events = events_paths.size() > 1;

    std::vector<obs::FlightSpan> spans;
    std::vector<obs::JournalEvent> journal;
    std::vector<obs::RoleSpans> role_spans;
    try {
        for (const std::string& trace_path : trace_paths) {
            const std::string trace_text = ReadFileOrThrow(trace_path);
            if (merged_traces) {
                role_spans.push_back(obs::ParseRoleTrace(
                    trace_text, obs::RoleFromFilename(trace_path)));
            } else {
                spans = obs::ParseChromeTraceJson(trace_text);
            }
        }
        if (merged_traces) {
            // Every span rebased onto the coordinator clock
            // (obs/merge.h), so the critical path runs across processes.
            spans = obs::MergeRoleSpans(role_spans);
        }
        if (merged_events) {
            std::vector<obs::RoleEvents> role_events;
            for (const std::string& events_path : events_paths) {
                role_events.push_back(obs::ParseRoleEventsJsonl(
                    ReadFileOrThrow(events_path),
                    obs::RoleFromFilename(events_path)));
            }
            const obs::MergedEvents merged =
                obs::MergeRoleEvents(role_events);
            if (merged.skipped_lines > 0) {
                out << "warning: skipped " << merged.skipped_lines
                    << " malformed journal line(s) while merging\n";
            }
            journal.reserve(merged.events.size());
            for (const obs::ClusterEvent& ce : merged.events) {
                journal.push_back(ce.event);
            }
        } else if (!events_paths.empty()) {
            journal =
                obs::ParseEventsJsonl(ReadFileOrThrow(events_paths.front()));
        }
    } catch (const std::exception& e) {
        out << "error: " << e.what() << "\n";
        return 2;
    }

    const obs::FlightAnalysis analysis = obs::AnalyzeFlight(spans);
    out << "MoC checkpoint flight recorder: " << spans.size() << " span(s), "
        << analysis.generations.size() << " generation(s)\n";
    if (merged_traces) {
        out << "merged " << trace_paths.size()
            << " role trace(s) onto the coordinator clock:";
        for (const obs::RoleSpans& rs : role_spans) {
            out << " " << rs.role << " (offset "
                << Table::Num(static_cast<double>(rs.clock_offset_ns) / 1e6,
                              3)
                << " ms)";
        }
        out << "\n";
    }
    if (analysis.generations.empty()) {
        out << "no checkpoint generations in the trace (spans need a "
               "TraceContext; run with --trace-out on a cluster persist)\n";
    }

    // Stalls by generation (gen 0 = unattributed).
    std::map<std::uint64_t, std::vector<const obs::JournalEvent*>> stalls;
    std::size_t stalls_total = 0;
    for (const obs::JournalEvent& e : journal) {
        if (e.kind == obs::EventKind::kStall) {
            stalls[e.gen].push_back(&e);
            ++stalls_total;
        }
    }

    // Overhead model operating point for the O_save attribution.
    FaultToleranceModel model;
    model.i_total = static_cast<double>(args.GetInt("i-total", 0));
    model.lambda = std::stod(args.Get("lambda", "0"));
    model.t_iter = std::stod(args.Get("t-iter", "0"));
    double i_ckpt = static_cast<double>(args.GetInt("i-ckpt", 0));
    if (i_ckpt <= 0.0) {
        i_ckpt = InferIntervalFromGenerations(analysis);
    }

    json::Writer machine;
    machine.BeginObject().Field("schema", "moc-trace/1")
        .Key("generations").BeginArray();

    for (const obs::GenerationProfile& gen : analysis.generations) {
        out << "\n== generation " << gen.generation << " (iteration "
            << gen.iteration << ") ==\n";
        out << "wall " << Ms(gen.wall_ns) << " ms, critical path "
            << Ms(gen.critical_ns) << " ms ("
            << Table::Num(gen.wall_ns > 0
                              ? 100.0 * static_cast<double>(gen.critical_ns) /
                                    static_cast<double>(gen.wall_ns)
                              : 0.0,
                          1)
            << "% of wall)\n";

        Table path({"#", "phase", "span", "rank", "wait (ms)", "dur (ms)",
                    "share"});
        for (std::size_t i = 0; i < gen.critical_path.size(); ++i) {
            const obs::CriticalSegment& seg = gen.critical_path[i];
            const double share =
                gen.critical_ns > 0
                    ? static_cast<double>(seg.duration_ns + seg.wait_ns) /
                          static_cast<double>(gen.critical_ns)
                    : 0.0;
            path.AddRow({std::to_string(i + 1), seg.phase, seg.name,
                         seg.rank >= 0 ? std::to_string(seg.rank) : "-",
                         Ms(seg.wait_ns), Ms(seg.duration_ns),
                         Table::Num(share * 100.0, 1) + "%"});
        }
        out << path.ToString();

        if (!gen.ranks.empty()) {
            Table ranks({"rank", "serialize (ms)", "snapshot (ms)",
                         "persist (ms)", "shards", "slack (ms)", ""});
            for (const obs::RankProfile& r : gen.ranks) {
                ranks.AddRow({std::to_string(r.rank), Ms(r.serialize_ns),
                              Ms(r.snapshot_ns), Ms(r.persist_ns),
                              std::to_string(r.shards), Ms(r.slack_ns),
                              r.rank == gen.straggler ? "<- straggler" : ""});
            }
            out << ranks.ToString();
        }

        // O_save attribution: this generation's cost by phase, scaled to
        // run-level save overhead (the first term of Eq. 12) when the
        // operating point is known.
        const double o_save_s = NsToS(gen.wall_ns);
        const bool scaled = model.i_total > 0.0 && i_ckpt > 0.0;
        out << "O_save (this generation) = " << Table::Num(o_save_s, 6)
            << " s";
        if (scaled) {
            out << "; run-level save overhead (Eq. 12, I_total/I_ckpt = "
                << Table::Num(model.i_total / i_ckpt, 1) << " events) = "
                << Table::Num(o_save_s * model.i_total / i_ckpt, 4) << " s";
        }
        out << "\n";
        Table attribution(
            {"phase", "critical (ms)", "share of O_save",
             scaled ? "run-level (Eq. 12, s)" : "run-level (need --i-total)"});
        for (const auto& [phase, ns] : gen.phase_ns) {
            const double phase_s = NsToS(ns);
            const double share =
                gen.critical_ns > 0 ? static_cast<double>(ns) /
                                          static_cast<double>(gen.critical_ns)
                                    : 0.0;
            attribution.AddRow(
                {phase, Ms(ns), Table::Num(share * 100.0, 1) + "%",
                 scaled ? Table::Num(phase_s * model.i_total / i_ckpt, 4)
                        : "-"});
        }
        out << attribution.ToString();
        if (model.lambda > 0.0 && model.t_iter > 0.0 && scaled) {
            const double total =
                TotalCheckpointOverhead(model, o_save_s, i_ckpt);
            out << "total overhead at this O_save (Eq. 12/13) = "
                << Table::Num(total, 4) << " s; optimal I* (Eq. 13) = "
                << Table::Num(OptimalInterval(model, o_save_s), 1)
                << " iters (run used " << Table::Num(i_ckpt, 1) << ")\n";
        }

        const auto stall_it = stalls.find(gen.generation);
        const std::size_t gen_stalls =
            stall_it == stalls.end() ? 0 : stall_it->second.size();
        if (gen_stalls > 0) {
            out << gen_stalls << " stall(s) in this generation:\n";
            for (const obs::JournalEvent* e : stall_it->second) {
                out << "  rank " << e->scope << ": " << e->detail << "\n";
            }
        }

        machine.BeginObject().Field("generation", gen.generation)
            .Field("iteration", gen.iteration)
            .Field("wall_s", NsToS(gen.wall_ns))
            .Field("critical_s", NsToS(gen.critical_ns))
            .Field("straggler", gen.straggler).Field("stalls", gen_stalls)
            .Key("phases").BeginObject();
        for (const auto& [phase, ns] : gen.phase_ns) {
            machine.Field(phase, NsToS(ns));
        }
        machine.EndObject().Key("critical_path").BeginArray();
        for (const obs::CriticalSegment& seg : gen.critical_path) {
            machine.BeginObject().Field("phase", seg.phase)
                .Field("rank", seg.rank).Field("wait_s", NsToS(seg.wait_ns))
                .Field("duration_s", NsToS(seg.duration_ns)).EndObject();
        }
        machine.EndArray().Key("ranks").BeginArray();
        for (const obs::RankProfile& r : gen.ranks) {
            machine.BeginObject().Field("rank", r.rank)
                .Field("serialize_s", NsToS(r.serialize_ns))
                .Field("snapshot_s", NsToS(r.snapshot_ns))
                .Field("persist_s", NsToS(r.persist_ns))
                .Field("shards", r.shards).Field("slack_s", NsToS(r.slack_ns))
                .EndObject();
        }
        machine.EndArray().EndObject();
    }
    machine.EndArray().Field("stalls_total", stalls_total)
        .Field("i_ckpt", i_ckpt).Field("spans", spans.size())
        .Field("trace_files", trace_paths.size()).EndObject().EndLine();

    if (stalls_total > 0) {
        out << "\n" << stalls_total
            << " stall event(s) total — see obs.stall.* metrics\n";
    }
    out << "\n--- machine-readable (moc-trace/1) ---\n" << machine.str();

    const std::string annotated_out = args.Get("annotated-out", "");
    if (!annotated_out.empty()) {
        if (!obs::WriteTextFile(annotated_out, AnnotatedChromeTrace(spans),
                                "annotated trace")) {
            out << "error: cannot write '" << annotated_out << "'\n";
            return 2;
        }
        out << "annotated trace written to " << annotated_out << "\n";
    }
    const std::string trace_json = args.Get("trace-json", "");
    if (!trace_json.empty() &&
        !obs::WriteTextFile(trace_json, machine.str(), "trace JSON")) {
        out << "error: cannot write '" << trace_json << "'\n";
        return 2;
    }
    return 0;
}

}  // namespace moc::cli

#ifndef MOC_OBS_CRITICAL_PATH_H_
#define MOC_OBS_CRITICAL_PATH_H_

/**
 * @file
 * The flight-recorder analyzer: re-assembles TraceContext-stamped spans
 * (obs/trace.h) into the causal DAG of each cluster checkpoint generation
 * and walks its critical path.
 *
 * A generation's DAG is fixed by the checkpoint stack's structure
 * (src/ckpt/cluster_engine.h): every rank serializes, snapshots, and
 * persists its shards concurrently with the others, and the seal barrier
 * (PersistPipeline::FinishGeneration) waits for the last shard of the last
 * rank. The critical path therefore runs through exactly one rank — the
 * straggler — and decomposes the generation's wall time into
 * serialize → snapshot → persist → verify → seal segments plus the waits
 * between them. Effective segment durations are clipped to start after the
 * previous segment ends, so `sum(duration + wait)` over the path telescopes
 * to the measured wall time exactly (the acceptance check of
 * `moc_cli trace`).
 *
 * Input is either the live Tracer (CollectFlightSpans) or an exported
 * Chrome trace (ParseChromeTraceJson — the `args` object carries the
 * context; spans without one are ignored). Per-phase totals feed the
 * O_save attribution against Eq. 11-13 (src/core/overhead.h).
 */

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace moc::json {
class Writer;
}

namespace moc::obs {

/** One context-stamped span, decoupled from the live Tracer's literals. */
struct FlightSpan {
    std::string name;
    std::string category;
    /** Checkpoint phase ("serialize", "snapshot", "persist", "verify",
        "seal", ...); empty for spans outside the checkpoint stack. */
    std::string phase;
    std::uint64_t start_ns = 0;
    std::uint64_t duration_ns = 0;
    std::uint32_t tid = 0;
    std::uint64_t generation = 0;
    std::uint64_t iteration = 0;
    std::int32_t rank = -1;

    std::uint64_t end_ns() const { return start_ns + duration_ns; }
};

/** The live Tracer's merged rings as FlightSpans (all spans, any context). */
std::vector<FlightSpan> CollectFlightSpans();

/**
 * Parses a Chrome trace produced by ChromeTraceJson (obs/export.h) back
 * into spans. Only complete events (`"ph": "X"`) are returned; the
 * checkpoint context is read from the optional `args` object.
 * @throws std::invalid_argument on malformed JSON or a missing traceEvents
 *         array.
 */
std::vector<FlightSpan> ParseChromeTraceJson(const std::string& text);

/**
 * Appends @p span to an open `traceEvents` array as one Chrome complete
 * event on lane @p pid, starting at @p ts_ns (the caller's rebased clock).
 * `ts`/`dur` are fixed-point microseconds with nanosecond digits, so large
 * steady-clock stamps keep their ordering; the checkpoint context rides in
 * `args` when the span has one. Every Chrome trace written here goes
 * through this encoder, and ParseChromeTraceJson reads it back.
 */
void WriteChromeSpan(json::Writer& w, const FlightSpan& span,
                     std::uint64_t pid, std::uint64_t ts_ns);

/** Appends the Chrome metadata event that names lane @p pid. */
void WriteChromeLaneName(json::Writer& w, std::uint64_t pid,
                         std::string_view name);

/** One segment of a generation's critical path, in causal order. */
struct CriticalSegment {
    std::string phase;
    std::string name;
    std::int32_t rank = -1;
    std::uint64_t start_ns = 0;
    /** Effective duration: end minus max(start, previous segment's end). */
    std::uint64_t duration_ns = 0;
    /** Idle gap between the previous segment's end and this start. */
    std::uint64_t wait_ns = 0;
};

/** Per-rank phase totals and slack within one generation. */
struct RankProfile {
    std::int32_t rank = -1;
    std::uint64_t serialize_ns = 0;
    std::uint64_t snapshot_ns = 0;
    /** Persist + verify span time, summed over this rank's shards. */
    std::uint64_t persist_ns = 0;
    /** When this rank's last persist/verify span ended (absolute ns). */
    std::uint64_t finish_ns = 0;
    /** How much later the straggler finished than this rank. */
    std::uint64_t slack_ns = 0;
    /** Number of persist spans (shards physically written). */
    std::size_t shards = 0;
};

/** The reconstructed profile of one checkpoint generation. */
struct GenerationProfile {
    std::uint64_t generation = 0;
    std::uint64_t iteration = 0;
    /** Earliest span start in the generation (absolute ns). */
    std::uint64_t start_ns = 0;
    /** Latest span end minus earliest start. */
    std::uint64_t wall_ns = 0;
    /** Causal-order critical path (serialize → ... → seal). */
    std::vector<CriticalSegment> critical_path;
    /** Sum of effective durations + waits along the path. */
    std::uint64_t critical_ns = 0;
    /** Effective ns per phase on the critical path; waits under "wait". */
    std::map<std::string, std::uint64_t> phase_ns;
    /** Per-rank totals, ascending rank. */
    std::vector<RankProfile> ranks;
    /** Rank whose persist finished last (-1 when no rank-scoped spans). */
    std::int32_t straggler = -1;
};

struct FlightAnalysis {
    /** One profile per generation seen in the spans, ascending. */
    std::vector<GenerationProfile> generations;
};

/**
 * Groups @p spans by generation (spans with generation 0 are ignored) and
 * reconstructs each generation's critical path and per-rank profile.
 */
FlightAnalysis AnalyzeFlight(const std::vector<FlightSpan>& spans);

}  // namespace moc::obs

#endif  // MOC_OBS_CRITICAL_PATH_H_

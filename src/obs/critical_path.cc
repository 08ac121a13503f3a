#include "obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "obs/trace.h"
#include "util/json.h"

namespace moc::obs {

namespace {

/**
 * Nanoseconds as fractional microseconds with full precision. A shortest
 * double would round large steady-clock stamps, destroying span ordering
 * for trace round-trips.
 */
std::string
TraceMicros(std::uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

/** Latest-ending span in @p spans matching @p pred, or nullptr. */
template <typename Pred>
const FlightSpan*
LatestEnding(const std::vector<FlightSpan>& spans, Pred pred) {
    const FlightSpan* best = nullptr;
    for (const FlightSpan& s : spans) {
        if (!pred(s)) {
            continue;
        }
        if (best == nullptr || s.end_ns() > best->end_ns()) {
            best = &s;
        }
    }
    return best;
}

/**
 * The causal chain of one generation, earliest first. The DAG's join
 * structure (all ranks' persists → seal) means the path runs through the
 * last-finishing persist/verify; everything upstream of it is sequential
 * on that rank's lane.
 */
std::vector<const FlightSpan*>
CriticalChain(const std::vector<FlightSpan>& spans) {
    std::vector<const FlightSpan*> chain;
    const FlightSpan* seal =
        LatestEnding(spans, [](const FlightSpan& s) { return s.phase == "seal"; });
    // The last persist-side span to finish gates the seal barrier.
    const FlightSpan* last_write = LatestEnding(spans, [&](const FlightSpan& s) {
        return (s.phase == "persist" || s.phase == "verify") &&
               (seal == nullptr || s.start_ns <= seal->end_ns());
    });
    if (last_write != nullptr && last_write->phase == "verify") {
        // The verify readback follows its shard's write on the same worker
        // thread; pull the write in so both segments show on the path.
        const FlightSpan* write =
            LatestEnding(spans, [&](const FlightSpan& s) {
                return s.phase == "persist" && s.tid == last_write->tid &&
                       s.end_ns() <= last_write->end_ns();
            });
        if (write != nullptr) {
            chain.push_back(write);
        }
    }
    if (last_write != nullptr) {
        chain.push_back(last_write);
    }
    const std::int32_t rank = last_write != nullptr ? last_write->rank : -1;
    if (rank >= 0) {
        // Upstream of the persist: this rank's snapshot and serialize.
        for (const char* phase : {"snapshot", "serialize"}) {
            const FlightSpan* up = LatestEnding(spans, [&](const FlightSpan& s) {
                return s.phase == phase && s.rank == rank &&
                       (chain.empty() ||
                        s.start_ns <= chain.front()->end_ns());
            });
            if (up != nullptr) {
                chain.insert(chain.begin(), up);
            }
        }
    }
    if (seal != nullptr) {
        chain.push_back(seal);
    }
    if (chain.empty()) {
        // Degenerate stream (e.g. only a restore span): fall back to the
        // latest-ending span so the path is never empty.
        const FlightSpan* any =
            LatestEnding(spans, [](const FlightSpan&) { return true; });
        if (any != nullptr) {
            chain.push_back(any);
        }
    }
    return chain;
}

GenerationProfile
ProfileGeneration(std::uint64_t generation,
                  const std::vector<FlightSpan>& spans) {
    GenerationProfile profile;
    profile.generation = generation;

    std::uint64_t min_start = spans.front().start_ns;
    std::uint64_t max_end = spans.front().end_ns();
    for (const FlightSpan& s : spans) {
        min_start = std::min(min_start, s.start_ns);
        max_end = std::max(max_end, s.end_ns());
        if (profile.iteration == 0) {
            profile.iteration = s.iteration;
        }
    }
    profile.start_ns = min_start;
    profile.wall_ns = max_end - min_start;

    // Per-rank phase totals.
    std::map<std::int32_t, RankProfile> ranks;
    for (const FlightSpan& s : spans) {
        if (s.rank < 0) {
            continue;
        }
        RankProfile& r = ranks[s.rank];
        r.rank = s.rank;
        if (s.phase == "serialize") {
            r.serialize_ns += s.duration_ns;
        } else if (s.phase == "snapshot") {
            r.snapshot_ns += s.duration_ns;
        } else if (s.phase == "persist" || s.phase == "verify") {
            r.persist_ns += s.duration_ns;
            r.finish_ns = std::max(r.finish_ns, s.end_ns());
            if (s.phase == "persist") {
                ++r.shards;
            }
        }
    }
    std::uint64_t straggler_finish = 0;
    for (const auto& [rank, r] : ranks) {
        if (r.finish_ns > straggler_finish) {
            straggler_finish = r.finish_ns;
            profile.straggler = rank;
        }
    }
    for (auto& [rank, r] : ranks) {
        r.slack_ns =
            straggler_finish > r.finish_ns ? straggler_finish - r.finish_ns : 0;
        profile.ranks.push_back(r);
    }

    // Walk the chain forward, clipping overlaps so segments + waits
    // telescope from the generation start to the last segment's end.
    const auto chain = CriticalChain(spans);
    std::uint64_t cursor = min_start;
    for (const FlightSpan* s : chain) {
        CriticalSegment seg;
        seg.phase = s->phase.empty() ? s->name : s->phase;
        seg.name = s->name;
        seg.rank = s->rank;
        seg.start_ns = s->start_ns;
        seg.wait_ns = s->start_ns > cursor ? s->start_ns - cursor : 0;
        const std::uint64_t eff_start = std::max(s->start_ns, cursor);
        seg.duration_ns =
            s->end_ns() > eff_start ? s->end_ns() - eff_start : 0;
        cursor = std::max(cursor, s->end_ns());
        profile.critical_ns += seg.wait_ns + seg.duration_ns;
        profile.phase_ns[seg.phase] += seg.duration_ns;
        if (seg.wait_ns > 0) {
            profile.phase_ns["wait"] += seg.wait_ns;
        }
        profile.critical_path.push_back(std::move(seg));
    }
    return profile;
}

}  // namespace

std::vector<FlightSpan>
CollectFlightSpans() {
    const auto events = Tracer::Instance().Collect();
    std::vector<FlightSpan> spans;
    spans.reserve(events.size());
    for (const TraceEvent& e : events) {
        FlightSpan s;
        s.name = e.name;
        s.category = e.category;
        s.phase = e.phase;
        s.start_ns = e.start_ns;
        s.duration_ns = e.duration_ns;
        s.tid = e.tid;
        s.generation = e.generation;
        s.iteration = e.iteration;
        s.rank = e.rank;
        spans.push_back(std::move(s));
    }
    return spans;
}

std::vector<FlightSpan>
ParseChromeTraceJson(const std::string& text) {
    const json::Value doc = json::Parse(text);
    const json::Value* events = doc.Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        throw std::invalid_argument(
            "chrome trace: missing traceEvents array");
    }
    std::vector<FlightSpan> spans;
    spans.reserve(events->AsArray().size());
    for (const json::Value& rec : events->AsArray()) {
        if (rec.StringOr("ph", "") != "X") {
            continue;
        }
        FlightSpan s;
        s.name = rec.StringOr("name", "");
        s.category = rec.StringOr("cat", "");
        s.start_ns = static_cast<std::uint64_t>(
            std::llround(rec.NumberOr("ts", 0.0) * 1000.0));
        s.duration_ns = static_cast<std::uint64_t>(
            std::llround(rec.NumberOr("dur", 0.0) * 1000.0));
        s.tid = static_cast<std::uint32_t>(rec.NumberOr("tid", 0.0));
        if (const json::Value* args = rec.Find("args");
            args != nullptr && args->is_object()) {
            s.generation =
                static_cast<std::uint64_t>(args->NumberOr("gen", 0.0));
            s.iteration =
                static_cast<std::uint64_t>(args->NumberOr("iter", 0.0));
            s.rank = static_cast<std::int32_t>(args->NumberOr("rank", -1.0));
            s.phase = args->StringOr("phase", "");
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

void
WriteChromeSpan(json::Writer& w, const FlightSpan& span, std::uint64_t pid,
                std::uint64_t ts_ns) {
    w.BeginObject().Field("name", span.name).Field("cat", span.category)
        .Field("ph", "X")
        .Key("ts").Raw(TraceMicros(ts_ns))
        .Key("dur").Raw(TraceMicros(span.duration_ns)).Field("pid", pid)
        .Field("tid", span.tid);
    if (span.generation != 0 || span.rank >= 0 || !span.phase.empty()) {
        w.Key("args").BeginObject().Field("gen", span.generation)
            .Field("iter", span.iteration).Field("rank", span.rank)
            .Field("phase", span.phase).EndObject();
    }
    w.EndObject();
}

void
WriteChromeLaneName(json::Writer& w, std::uint64_t pid,
                    std::string_view name) {
    w.BeginObject().Field("name", "process_name").Field("ph", "M")
        .Field("pid", pid)
        .Key("args").BeginObject().Field("name", name).EndObject().EndObject();
}

FlightAnalysis
AnalyzeFlight(const std::vector<FlightSpan>& spans) {
    std::map<std::uint64_t, std::vector<FlightSpan>> by_generation;
    for (const FlightSpan& s : spans) {
        if (s.generation != 0) {
            by_generation[s.generation].push_back(s);
        }
    }
    FlightAnalysis analysis;
    analysis.generations.reserve(by_generation.size());
    for (const auto& [generation, gen_spans] : by_generation) {
        analysis.generations.push_back(
            ProfileGeneration(generation, gen_spans));
    }
    return analysis;
}

}  // namespace moc::obs

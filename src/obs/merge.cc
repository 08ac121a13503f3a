#include "obs/merge.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace moc::obs {

std::string
RoleFromFilename(const std::string& path) {
    std::size_t start = path.find_last_of("/\\");
    start = start == std::string::npos ? 0 : start + 1;
    std::size_t end = path.find('.', start);
    if (end == std::string::npos) {
        end = path.size();
    }
    return path.substr(start, end - start);
}

RoleEvents
ParseRoleEventsJsonl(const std::string& text,
                     const std::string& fallback_role) {
    RoleEvents out;
    out.role = fallback_role;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
        }
        json::Value record;
        try {
            record = json::Parse(line);
        } catch (const std::invalid_argument&) {
            // The torn tail of a killed process, or stray output. Count it
            // and keep going: partial journals are the whole point.
            ++out.skipped_lines;
            continue;
        }
        if (record.StringOr("type", "") == "meta") {
            out.has_meta = true;
            const std::string meta_role = record.StringOr("role", "");
            if (!meta_role.empty()) {
                out.role = meta_role;
            }
            out.clock_offset_ns = static_cast<std::int64_t>(
                record.NumberOr("clock_offset_ns", 0.0));
            out.clock_epoch_ns = static_cast<std::int64_t>(
                record.NumberOr("clock_epoch_ns", 0.0));
            continue;
        }
        try {
            out.events.push_back(ParseEventRecord(record));
        } catch (const std::invalid_argument&) {
            ++out.skipped_lines;
        }
    }
    return out;
}

MergedEvents
MergeRoleEvents(const std::vector<RoleEvents>& inputs) {
    MergedEvents merged;
    merged.roles = inputs.size();
    for (const RoleEvents& input : inputs) {
        merged.skipped_lines += input.skipped_lines;
        for (const JournalEvent& e : input.events) {
            ClusterEvent ce;
            ce.event = e;
            if (ce.event.role.empty()) {
                ce.event.role = input.role;
            }
            // Relative stamp -> local absolute -> coordinator clock.
            ce.abs_ns = input.clock_epoch_ns +
                        static_cast<std::int64_t>(
                            std::llround(e.wall_s * 1e9)) +
                        input.clock_offset_ns;
            merged.events.push_back(std::move(ce));
        }
    }
    std::sort(merged.events.begin(), merged.events.end(),
              [](const ClusterEvent& a, const ClusterEvent& b) {
                  if (a.abs_ns != b.abs_ns) {
                      return a.abs_ns < b.abs_ns;
                  }
                  if (a.event.role != b.event.role) {
                      return a.event.role < b.event.role;
                  }
                  return a.event.seq < b.event.seq;
              });
    if (!merged.events.empty()) {
        merged.base_ns = merged.events.front().abs_ns;
    }
    return merged;
}

std::string
ClusterEventsJsonl(const MergedEvents& merged) {
    json::Writer w;
    w.BeginObject().Field("type", "meta").Field("schema", "moc-cluster/1")
        .Field("roles", merged.roles)
        .Field("skipped_lines", merged.skipped_lines)
        .Field("base_ns", merged.base_ns).Field("events", merged.events.size())
        .EndObject().EndLine();
    for (const ClusterEvent& ce : merged.events) {
        WriteEventJsonl(w, ce.event,
                        static_cast<double>(ce.abs_ns - merged.base_ns) / 1e9);
    }
    return w.Take();
}

RoleSpans
ParseRoleTrace(const std::string& text, const std::string& fallback_role) {
    RoleSpans out;
    out.role = fallback_role;
    out.spans = ParseChromeTraceJson(text);  // throws on malformed JSON
    const json::Value doc = json::Parse(text);
    if (const json::Value* meta = doc.Find("metadata")) {
        const std::string meta_role = meta->StringOr("role", "");
        if (!meta_role.empty()) {
            out.role = meta_role;
        }
        out.clock_offset_ns = static_cast<std::int64_t>(
            meta->NumberOr("clock_offset_ns", 0.0));
    }
    return out;
}

std::vector<FlightSpan>
MergeRoleSpans(const std::vector<RoleSpans>& inputs) {
    std::vector<FlightSpan> merged;
    for (const RoleSpans& input : inputs) {
        for (FlightSpan span : input.spans) {
            span.start_ns = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(span.start_ns) +
                input.clock_offset_ns);
            merged.push_back(std::move(span));
        }
    }
    return merged;
}

std::string
MergedChromeTraceJson(const std::vector<RoleSpans>& inputs) {
    // Re-zero to the earliest rebased span so the merged trace opens at
    // t=0 instead of some process's steady-clock uptime.
    std::int64_t base = 0;
    bool have_base = false;
    for (const RoleSpans& input : inputs) {
        for (const FlightSpan& span : input.spans) {
            const std::int64_t abs =
                static_cast<std::int64_t>(span.start_ns) +
                input.clock_offset_ns;
            if (!have_base || abs < base) {
                base = abs;
                have_base = true;
            }
        }
    }
    json::Writer w;
    w.BeginObject().Key("metadata").BeginObject()
        .Field("schema", "moc-cluster/1").Field("roles", inputs.size())
        .Field("base_ns", base).EndObject()
        .Key("traceEvents").BeginArray();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const RoleSpans& input = inputs[i];
        const std::uint64_t pid = i + 1;
        WriteChromeLaneName(w, pid, input.role);
        for (const FlightSpan& span : input.spans) {
            const std::int64_t abs = static_cast<std::int64_t>(span.start_ns) +
                                     input.clock_offset_ns - base;
            WriteChromeSpan(w, span, pid,
                            static_cast<std::uint64_t>(abs < 0 ? 0 : abs));
        }
    }
    w.EndArray().Field("displayTimeUnit", "ms").EndObject().EndLine();
    return w.Take();
}

std::string
ClusterMetricsJson(
    const std::vector<std::pair<std::string, std::string>>& role_texts,
    std::size_t* skipped) {
    json::Writer w;
    w.BeginObject().Field("schema", "moc-cluster/1")
        .Key("roles").BeginObject();
    std::size_t bad = 0;
    for (const auto& [role, text] : role_texts) {
        try {
            const json::Value doc = json::Parse(text);
            w.Field(role, doc);
        } catch (const std::invalid_argument&) {
            ++bad;  // a killed process's torn dump: skip, count, continue
        }
    }
    w.EndObject().EndObject().EndLine();
    if (skipped != nullptr) {
        *skipped = bad;
    }
    return w.Take();
}

}  // namespace moc::obs

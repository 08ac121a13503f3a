#include "obs/export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_meta.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace moc::obs {

namespace {

/**
 * Nanoseconds as fractional microseconds with full precision. %.9g would
 * round large steady-clock stamps to ~100 µs, destroying span ordering for
 * trace round-trips (obs/critical_path.h).
 */
std::string
TraceMicros(std::uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

}  // namespace

std::string
JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string
JsonNumber(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

bool
WriteTextFile(const std::string& path, const std::string& content,
              const char* what) {
    try {
        const std::filesystem::path p(path);
        if (p.has_parent_path()) {
            std::filesystem::create_directories(p.parent_path());
        }
        // Write aside and rename over the target: a process killed mid-write
        // leaves the previous file (or none), never a truncated one.
        const std::filesystem::path tmp =
            path + ".tmp." + std::to_string(::getpid());
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            MOC_WARN << "failed writing " << what << " to " << path;
            return false;
        }
        out << content;
        out.close();
        if (!out) {
            std::filesystem::remove(tmp);
            MOC_WARN << "failed writing " << what << " to " << path;
            return false;
        }
        std::filesystem::rename(tmp, p);
        return true;
    } catch (const std::filesystem::filesystem_error& e) {
        MOC_WARN << "failed writing " << what << " to " << path << ": "
                 << e.what();
        return false;
    }
}

std::string
MetricsJson() {
    const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
    std::ostringstream out;
    out << "{\n  \"meta\": {" << RunMetaJsonFields() << "},\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
            << "\": " << value;
        first = false;
    }
    out << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
        out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
            << "\": " << JsonNumber(value);
        first = false;
    }
    out << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, data] : snap.histograms) {
        out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {"
            << "\"count\": " << data.count << ", \"sum\": "
            << JsonNumber(data.sum) << ", \"mean\": "
            << JsonNumber(data.count > 0
                              ? data.sum / static_cast<double>(data.count)
                              : 0.0)
            << ", \"buckets\": [";
        for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
            const std::string le = i < data.bounds.size()
                                       ? JsonNumber(data.bounds[i])
                                       : std::string("\"+inf\"");
            out << (i == 0 ? "" : ", ") << "{\"le\": " << le
                << ", \"count\": " << data.bucket_counts[i] << "}";
        }
        out << "]}";
        first = false;
    }
    out << (snap.histograms.empty() ? "" : "\n  ") << "},\n  \"experts\": [";
    first = true;
    for (const ExpertStat& cell : snap.experts) {
        out << (first ? "" : ",") << "\n    {\"layer\": " << cell.layer
            << ", \"expert\": " << cell.expert
            << ", \"last_snapshot_iteration\": " << cell.last_snapshot_iteration
            << ", \"last_persist_iteration\": " << cell.last_persist_iteration
            << ", \"snapshot_staleness\": " << cell.snapshot_staleness
            << ", \"persist_staleness\": " << cell.persist_staleness
            << ", \"snapshots\": " << cell.snapshots
            << ", \"persists\": " << cell.persists
            << ", \"snapshot_bytes\": " << cell.snapshot_bytes
            << ", \"persist_bytes\": " << cell.persist_bytes
            << ", \"lost_tokens\": " << cell.lost_tokens << "}";
        first = false;
    }
    out << (snap.experts.empty() ? "" : "\n  ") << "]\n}\n";
    return out.str();
}

bool
WriteMetricsJson(const std::string& path) {
    return WriteTextFile(path, MetricsJson(), "metrics JSON");
}

std::string
ChromeTraceJson() {
    const auto events = Tracer::Instance().Collect();
    std::ostringstream out;
    out << "{\"metadata\": {" << RunMetaJsonFields() << "},\n\"traceEvents\": [";
    bool first = true;
    for (const TraceEvent& event : events) {
        out << (first ? "" : ",") << "\n  {\"name\": \""
            << JsonEscape(event.name) << "\", \"cat\": \""
            << JsonEscape(event.category) << "\", \"ph\": \"X\", \"ts\": "
            << TraceMicros(event.start_ns) << ", \"dur\": "
            << TraceMicros(event.duration_ns)
            << ", \"pid\": 1, \"tid\": " << event.tid;
        // Checkpoint-event identity rides in "args" so chrome://tracing
        // shows it per-span and moc_cli trace can re-assemble generations.
        if (event.generation != 0 || event.rank >= 0 ||
            event.phase[0] != '\0') {
            out << ", \"args\": {\"gen\": " << event.generation
                << ", \"iter\": " << event.iteration
                << ", \"rank\": " << event.rank << ", \"phase\": \""
                << JsonEscape(event.phase) << "\"}";
        }
        out << "}";
        first = false;
    }
    out << (events.empty() ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
    return out.str();
}

bool
WriteChromeTrace(const std::string& path) {
    return WriteTextFile(path, ChromeTraceJson(), "chrome trace");
}

ObsOptions
ExtractObsOptions(std::vector<std::string>& tokens) {
    ObsOptions options;
    std::vector<std::string> kept;
    kept.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string& tok = tokens[i];
        std::string* slot = nullptr;
        if (tok == "--metrics-out") {
            slot = &options.metrics_out;
        } else if (tok == "--trace-out") {
            slot = &options.trace_out;
        } else if (tok == "--events-out") {
            slot = &options.events_out;
        } else if (tok == "--prom-out") {
            slot = &options.prom_out;
        } else if (tok == "--series-out") {
            slot = &options.series_out;
        }
        if (slot != nullptr) {
            if (i + 1 >= tokens.size()) {
                throw std::invalid_argument("option " + tok + " needs a value");
            }
            *slot = tokens[++i];
        } else {
            kept.push_back(tok);
        }
    }
    tokens = std::move(kept);
    if (!options.trace_out.empty()) {
        Tracer::Instance().set_enabled(true);
    }
    return options;
}

bool
ExportObs(const ObsOptions& options) {
    bool ok = true;
    if (!options.metrics_out.empty()) {
        ok = WriteMetricsJson(options.metrics_out) && ok;
    }
    if (!options.trace_out.empty()) {
        ok = WriteChromeTrace(options.trace_out) && ok;
    }
    if (!options.events_out.empty()) {
        ok = WriteEventsJsonl(options.events_out) && ok;
    }
    if (!options.prom_out.empty()) {
        ok = WriteMetricsPrometheus(options.prom_out) && ok;
    }
    if (!options.series_out.empty()) {
        ok = WriteTextFile(options.series_out,
                           TimeSeriesRing::Instance().Jsonl(),
                           "iteration series JSONL") &&
             ok;
    }
    return ok;
}

ObsExportGuard::ObsExportGuard(int& argc, char** argv) {
    SetRunCommandLine(argc, argv);
    std::vector<std::string> tokens;
    tokens.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
    for (int i = 1; i < argc; ++i) {
        tokens.emplace_back(argv[i]);
    }
    options_ = ExtractObsOptions(tokens);  // throws on a flag without a value
    // Compact argv so the program's own parsing only sees its positionals.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--metrics-out" || arg == "--trace-out" ||
            arg == "--events-out" || arg == "--prom-out" ||
            arg == "--series-out") {
            ++i;  // skip the value; ExtractObsOptions guaranteed it exists
            continue;
        }
        argv[kept++] = argv[i];
    }
    argv[kept] = nullptr;
    argc = kept;
}

ObsExportGuard::~ObsExportGuard() {
    if (!options_.metrics_out.empty() && WriteMetricsJson(options_.metrics_out)) {
        std::printf("metrics written to %s\n", options_.metrics_out.c_str());
    }
    if (!options_.trace_out.empty() && WriteChromeTrace(options_.trace_out)) {
        std::printf("trace written to %s\n", options_.trace_out.c_str());
    }
    if (!options_.events_out.empty() && WriteEventsJsonl(options_.events_out)) {
        std::printf("events written to %s\n", options_.events_out.c_str());
    }
    if (!options_.prom_out.empty() &&
        WriteMetricsPrometheus(options_.prom_out)) {
        std::printf("prometheus metrics written to %s\n",
                    options_.prom_out.c_str());
    }
    if (!options_.series_out.empty() &&
        WriteTextFile(options_.series_out, TimeSeriesRing::Instance().Jsonl(),
                      "iteration series JSONL")) {
        std::printf("iteration series written to %s\n",
                    options_.series_out.c_str());
    }
}

}  // namespace moc::obs

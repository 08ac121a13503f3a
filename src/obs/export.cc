#include "obs/export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "obs/critical_path.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_meta.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/logging.h"

namespace moc::obs {

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
    json::Writer w;
    w.BeginObject().Key("meta").BeginObject();
    WriteRunMetaFields(w);
    w.EndObject().Key("counters").BeginObject();
    for (const auto& [name, value] : snap.counters) {
        w.Field(name, value);
    }
    w.EndObject().Key("gauges").BeginObject();
    for (const auto& [name, value] : snap.gauges) {
        w.Field(name, value);
    }
    w.EndObject().Key("histograms").BeginObject();
    for (const auto& [name, data] : snap.histograms) {
        w.Key(name).BeginObject().Field("count", data.count)
            .Field("sum", data.sum)
            .Field("mean", data.count > 0
                               ? data.sum / static_cast<double>(data.count)
                               : 0.0)
            .Key("buckets").BeginArray();
        for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
            w.BeginObject().Key("le");
            if (i < data.bounds.size()) {
                w.Put(data.bounds[i]);
            } else {
                w.Put("+inf");
            }
            w.Field("count", data.bucket_counts[i]).EndObject();
        }
        w.EndArray().EndObject();
    }
    w.EndObject().Key("experts").BeginArray();
    for (const ExpertStat& cell : snap.experts) {
        w.BeginObject().Field("layer", cell.layer).Field("expert", cell.expert)
            .Field("last_snapshot_iteration", cell.last_snapshot_iteration)
            .Field("last_persist_iteration", cell.last_persist_iteration)
            .Field("snapshot_staleness", cell.snapshot_staleness)
            .Field("persist_staleness", cell.persist_staleness)
            .Field("snapshots", cell.snapshots).Field("persists", cell.persists)
            .Field("snapshot_bytes", cell.snapshot_bytes)
            .Field("persist_bytes", cell.persist_bytes)
            .Field("lost_tokens", cell.lost_tokens).EndObject();
    }
    w.EndArray().EndObject().EndLine();
    return w.Take();
}

bool
WriteMetricsJson(const std::string& path) {
    return WriteTextFile(path, MetricsJson(), "metrics JSON");
}

std::string
ChromeTraceJson() {
    json::Writer w;
    w.BeginObject().Key("metadata").BeginObject();
    WriteRunMetaFields(w);
    w.EndObject().Key("traceEvents").BeginArray();
    for (const FlightSpan& span : CollectFlightSpans()) {
        WriteChromeSpan(w, span, 1, span.start_ns);
    }
    w.EndArray().Field("displayTimeUnit", "ms").EndObject().EndLine();
    return w.Take();
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

#ifndef MOC_OBS_EXPORT_H_
#define MOC_OBS_EXPORT_H_

/**
 * @file
 * Exporters for the observability layer:
 *
 *  - a metrics dump as one JSON object (run metadata header, counters /
 *    gauges / histograms, per-expert telemetry), written next to bench
 *    results or wherever `--metrics-out` points;
 *  - the trace rings as a Chrome-trace event file (open with
 *    chrome://tracing or https://ui.perfetto.dev);
 *  - the event journal as JSONL (obs/journal.h) via `--events-out`;
 *  - Prometheus text format (obs/prometheus.h) via `--prom-out`.
 *
 * Plus the shared flag handling used by `moc_cli` and the examples:
 * `ExtractObsOptions` strips the flags from a token list, `ObsExportGuard`
 * wires an entire main() in two lines.
 */

#include <string>
#include <vector>

namespace moc::obs {

/**
 * Writes @p content to @p path, creating parent directories; @p what names
 * the artifact in the warning log on failure. The bytes go to
 * `<path>.tmp.<pid>` first and are renamed over @p path, so readers (and a
 * process killed mid-export) see the old file or the new one, never a torn
 * one; a failed write leaves the old file untouched.
 */
bool WriteTextFile(const std::string& path, const std::string& content,
                   const char* what);

/** The full registry as one JSON object (run metadata first). */
std::string MetricsJson();

/**
 * Writes MetricsJson() to @p path, creating parent directories.
 * @return false (with a warning log) if the filesystem refuses.
 */
bool WriteMetricsJson(const std::string& path);

/** All buffered trace events in Chrome trace-event JSON format. */
std::string ChromeTraceJson();

/** Writes ChromeTraceJson() to @p path, creating parent directories. */
bool WriteChromeTrace(const std::string& path);

/** Where a run should export its observability data (empty = don't). */
struct ObsOptions {
    std::string metrics_out;
    std::string trace_out;
    std::string events_out;
    std::string prom_out;
    /** Per-iteration time-series ring as JSONL (obs/timeseries.h). */
    std::string series_out;
};

/**
 * Removes `--metrics-out <path>` / `--trace-out <path>` / `--events-out
 * <path>` / `--prom-out <path>` / `--series-out <path>` from @p tokens and
 * returns them. Enables the tracer when a trace path is given.
 * @throws std::invalid_argument on a flag without a value.
 */
ObsOptions ExtractObsOptions(std::vector<std::string>& tokens);

/** Writes whichever outputs @p options requests; true if all succeeded. */
bool ExportObs(const ObsOptions& options);

/**
 * RAII main() wrapper for the examples: strips the export flags (and their
 * values) out of argc/argv at construction — so the program's own argument
 * parsing never sees them — records the command line as run metadata,
 * enables tracing if asked, and performs the export at scope exit,
 * announcing the written paths on stdout.
 */
class ObsExportGuard {
  public:
    ObsExportGuard(int& argc, char** argv);
    ~ObsExportGuard();

    ObsExportGuard(const ObsExportGuard&) = delete;
    ObsExportGuard& operator=(const ObsExportGuard&) = delete;

    const ObsOptions& options() const { return options_; }

  private:
    ObsOptions options_;
};

}  // namespace moc::obs

#endif  // MOC_OBS_EXPORT_H_

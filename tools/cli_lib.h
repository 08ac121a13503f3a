#ifndef MOC_TOOLS_CLI_LIB_H_
#define MOC_TOOLS_CLI_LIB_H_

/**
 * @file
 * The logic behind the `moc_cli` command-line tool, separated from main()
 * so it is unit-testable. Subcommands:
 *
 *   inspect <ckpt-dir>                 list a FileStore checkpoint's keys,
 *                                      sizes, and restart point
 *   plan [--dp N --ep N --gpus-per-node N --k N --strategy S]
 *                                      print the per-rank shard plan summary
 *                                      for GPT-350M-16E
 *   simulate [--gpus N --gpu a800|h100 --size S --k N]
 *                                      iteration timeline for a deployment
 *   trace-check <trace-file>           validate a fault-trace file
 *   fsck <ckpt-dir> [--json <path>]    scrub a FileStore checkpoint against
 *                                      its manifest: CRC every file, locate
 *                                      every recorded shard version, judge
 *                                      per-generation restartability. Exit
 *                                      0 clean / 1 repairable / 2 fatal
 *                                      (see tools/cli_fsck.cc)
 *   report --metrics <json> [--events <jsonl>]
 *                                      analyze a run's exports: recovery
 *                                      timeline, PLT trajectory, expert
 *                                      staleness, measured-vs-predicted
 *                                      overhead (see tools/cli_report.cc).
 *                                      Both flags repeat: multiple per-role
 *                                      files are merged onto one
 *                                      coordinator-aligned timeline
 *                                      (obs/merge.h) with a cluster health
 *                                      section
 *   trace --trace <chrome.json> [--events <jsonl>]
 *                                      flight-recorder analysis of a
 *                                      checkpoint trace: per-generation
 *                                      critical path, straggler ranking,
 *                                      per-phase O_save attribution, stall
 *                                      events (see tools/cli_trace.cc).
 *                                      --trace/--events repeat for merged
 *                                      cross-process analysis
 *   watch --url http://HOST:PORT [--once] [--watch-json]
 *                                      poll a run's live observability
 *                                      endpoint (/healthz, /ranks, /series)
 *                                      and render the per-rank health table
 *                                      plus the overhead trajectory. Exit 0
 *                                      healthy, 1 degraded, 2 unreachable
 *                                      (see tools/cli_watch.cc)
 *
 * Global flags (any subcommand): `--metrics-out <path>` dumps the process
 * metrics registry as JSON on exit; `--trace-out <path>` enables tracing
 * and writes a chrome://tracing event file on exit; `--events-out <path>`
 * writes the event journal as JSONL; `--prom-out <path>` writes Prometheus
 * text-format metrics.
 */

#include <iosfwd>
#include <string>
#include <vector>

namespace moc::cli {

/** Parsed `--key value` options plus positional arguments. */
struct Args {
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> options;

    /** Value of --name, or @p fallback. */
    std::string Get(const std::string& name, const std::string& fallback) const;

    /** Every value of a repeated --name, in command-line order. */
    std::vector<std::string> GetAll(const std::string& name) const;

    /** Integer option with fallback; throws std::invalid_argument on junk. */
    long GetInt(const std::string& name, long fallback) const;
};

/** Splits argv-style tokens into Args. Throws on `--flag` without value. */
Args ParseArgs(const std::vector<std::string>& tokens);

/** Whole-file read; throws std::invalid_argument("cannot read '<path>'"). */
std::string ReadFileOrThrow(const std::string& path);

/** Runs one subcommand; returns a process exit code, output to @p out. */
int RunInspect(const Args& args, std::ostream& out);
int RunPlan(const Args& args, std::ostream& out);
int RunSimulate(const Args& args, std::ostream& out);
int RunTraceCheck(const Args& args, std::ostream& out);
int RunReport(const Args& args, std::ostream& out);
int RunFsck(const Args& args, std::ostream& out);
int RunTrace(const Args& args, std::ostream& out);
int RunWatch(const Args& args, std::ostream& out);

/** Dispatches `moc_cli <subcommand> ...`; prints usage on errors. */
int Main(const std::vector<std::string>& tokens, std::ostream& out,
         std::ostream& err);

}  // namespace moc::cli

#endif  // MOC_TOOLS_CLI_LIB_H_

#include "cli_lib.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/moc_system.h"
#include "core/selection.h"
#include "obs/export.h"
#include "core/sharding.h"
#include "dist/presets.h"
#include "faults/trace.h"
#include "sim/gantt.h"
#include "sim/hardware.h"
#include "sim/perf_model.h"
#include "sim/timeline.h"
#include "storage/file_store.h"
#include "storage/manifest.h"
#include "util/crc32.h"
#include "util/table.h"

namespace moc::cli {

std::string
Args::Get(const std::string& name, const std::string& fallback) const {
    for (const auto& [key, value] : options) {
        if (key == name) {
            return value;
        }
    }
    return fallback;
}

std::vector<std::string>
Args::GetAll(const std::string& name) const {
    std::vector<std::string> values;
    for (const auto& [key, value] : options) {
        if (key == name) {
            values.push_back(value);
        }
    }
    return values;
}

long
Args::GetInt(const std::string& name, long fallback) const {
    const std::string v = Get(name, "");
    if (v.empty()) {
        return fallback;
    }
    std::size_t pos = 0;
    const long parsed = std::stol(v, &pos);
    if (pos != v.size()) {
        throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                    v + "'");
    }
    return parsed;
}

std::string
ReadFileOrThrow(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::invalid_argument("cannot read '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

Args
ParseArgs(const std::vector<std::string>& tokens) {
    Args args;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string& tok = tokens[i];
        if (tok.rfind("--", 0) == 0) {
            if (i + 1 >= tokens.size()) {
                throw std::invalid_argument("option " + tok + " needs a value");
            }
            args.options.emplace_back(tok.substr(2), tokens[i + 1]);
            ++i;
        } else {
            args.positional.push_back(tok);
        }
    }
    return args;
}

namespace {

/**
 * Extra state of the newest eligible generation, located and CRC-checked
 * through the manifest the directory carries; nullopt when any step fails.
 */
std::optional<ExtraState>
RestartPoint(const FileStore& store) {
    try {
        const auto doc = store.Get(kManifestKey);
        if (!doc.has_value()) {
            return std::nullopt;
        }
        CheckpointManifest manifest;
        manifest.LoadFromJson(std::string(doc->begin(), doc->end()));
        const auto generation = manifest.LatestEligibleGeneration();
        if (!generation.has_value()) {
            return std::nullopt;
        }
        const auto version =
            manifest.FindPersistVersion("extra/state", *generation);
        const auto blob = store.Get(
            MocCheckpointSystem::GenKey(*generation, "extra/state"));
        if (!version.has_value() || !blob.has_value() ||
            Crc32c(blob->data(), blob->size()) != version->crc) {
            return std::nullopt;
        }
        return DeserializeExtraState(*blob);
    } catch (const std::exception&) {
        return std::nullopt;  // unreadable manifest or damaged blob
    }
}

}  // namespace

int
RunInspect(const Args& args, std::ostream& out) {
    if (args.positional.empty()) {
        out << "usage: moc_cli inspect <ckpt-dir>\n";
        return 2;
    }
    FileStore store(args.positional.front());
    const auto keys = store.Keys();
    Table t({"key", "bytes"});
    Bytes total = 0;
    for (const auto& key : keys) {
        const auto blob = store.Get(key);
        const Bytes size = blob ? blob->size() : 0;
        total += size;
        t.AddRow({key, FormatBytes(size)});
    }
    out << t.ToString();
    out << keys.size() << " keys, " << FormatBytes(total) << " total\n";
    if (const auto state = RestartPoint(store)) {
        out << "restart point: iteration " << state->iteration << ", optimizer step "
            << state->adam_step << "\n";
    } else {
        out << "warning: no verified extra/state in an eligible generation — "
               "not a complete MoC checkpoint\n";
    }
    return 0;
}

int
RunPlan(const Args& args, std::ostream& out) {
    ParallelConfig parallel;
    parallel.dp = static_cast<std::size_t>(args.GetInt("dp", 16));
    parallel.ep = static_cast<std::size_t>(args.GetInt("ep", 8));
    const auto gpus_per_node =
        static_cast<std::size_t>(args.GetInt("gpus-per-node", 8));
    const auto k = static_cast<std::size_t>(args.GetInt("k", 16));
    const std::string strategy = args.Get("strategy", "full");

    const ModelSpec spec = Gpt350M16E();
    if (parallel.dp % parallel.ep != 0 || spec.num_experts % parallel.ep != 0) {
        out << "error: ep must divide dp and the expert count (16)\n";
        return 2;
    }
    ShardingOptions options;
    if (strategy == "full") {
        options.equal_expert = true;
        options.equal_nonexpert = true;
        options.adaptive_nonexpert = true;
    } else if (strategy != "baseline") {
        out << "error: --strategy must be 'baseline' or 'full'\n";
        return 2;
    }
    const RankTopology topo(parallel, gpus_per_node);
    const ModelStateInventory inv(spec, StateBytes{});
    ShardingPlanner planner(inv, topo, options);
    SequentialSelector selector(spec.num_experts);
    std::vector<std::vector<ExpertId>> sel(spec.NumMoeLayers());
    for (std::size_t m = 0; m < sel.size(); ++m) {
        sel[m] = selector.Select(0, m, std::min(k, spec.num_experts));
    }
    const ShardPlan plan = planner.Plan(sel, sel);

    out << "GPT-350M-16E, dp=" << parallel.dp << " ep=" << parallel.ep << " ("
        << topo.NumEpGroups() << " EP groups), K=" << k << ", strategy "
        << strategy << "\n";
    Table t({"rank", "node", "items", "bytes"});
    for (RankId r = 0; r < topo.dp(); ++r) {
        t.AddRow({std::to_string(r), std::to_string(topo.NodeOf(r)),
                  std::to_string(plan.Items(r).size()),
                  FormatBytes(plan.RankBytes(r))});
    }
    out << t.ToString();
    out << "bottleneck " << FormatBytes(plan.BottleneckBytes()) << ", total "
        << FormatBytes(plan.TotalBytes()) << "\n";
    return 0;
}

int
RunSimulate(const Args& args, std::ostream& out) {
    const auto gpus = static_cast<std::size_t>(args.GetInt("gpus", 64));
    const std::string gpu_name = args.Get("gpu", "a800");
    const std::string size = args.Get("size", "medium");
    if (gpus == 0 || (gpu_name != "a800" && gpu_name != "h100")) {
        out << "usage: moc_cli simulate [--gpus N] [--gpu a800|h100] "
               "[--size small|medium|large] [--k N]\n";
        return 2;
    }
    TrainingSetup setup;
    setup.model = LlamaMoeSim(size, gpus);
    setup.parallel = {.dp = gpus, .ep = gpus, .tp = 1, .pp = 1};
    setup.gpus_per_node = 8;
    setup.gpu = gpu_name == "h100" ? H100() : A800();
    const auto k = static_cast<std::size_t>(
        args.GetInt("k", static_cast<long>(std::max<std::size_t>(1, gpus / 8))));
    const PerfModel model(setup);
    for (const auto& timing : SimulateAllMethods(model, k)) {
        out << RenderIterationGantt(timing, 56);
    }
    return 0;
}

int
RunTraceCheck(const Args& args, std::ostream& out) {
    if (args.positional.empty()) {
        out << "usage: moc_cli trace-check <trace-file>\n";
        return 2;
    }
    try {
        const auto injector = LoadFaultTrace(args.positional.front());
        out << "ok: " << injector.events().size() << " fault event(s)\n";
        out << FormatFaultTrace(injector);
        return 0;
    } catch (const std::exception& e) {
        out << "invalid trace: " << e.what() << "\n";
        return 1;
    }
}

namespace {

/**
 * Lets `watch`'s boolean flags be written bare (`--once`, `--watch-json`)
 * by inserting the implied "1" value where the next token is another
 * option or the end — ParseArgs itself demands `--flag value` pairs.
 */
std::vector<std::string>
ExpandBoolFlags(std::vector<std::string> tokens,
                const std::vector<std::string>& bool_flags) {
    std::vector<std::string> expanded;
    expanded.reserve(tokens.size() + bool_flags.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        expanded.push_back(tokens[i]);
        const bool boolean =
            std::find(bool_flags.begin(), bool_flags.end(), tokens[i]) !=
            bool_flags.end();
        const bool bare = i + 1 >= tokens.size() ||
                          tokens[i + 1].rfind("--", 0) == 0;
        if (boolean && bare) {
            expanded.emplace_back("1");
        }
    }
    return expanded;
}

}  // namespace

int
Main(const std::vector<std::string>& tokens, std::ostream& out, std::ostream& err) {
    try {
        std::vector<std::string> remaining = tokens;
        const obs::ObsOptions obs_options = obs::ExtractObsOptions(remaining);
        if (remaining.empty()) {
            err << "usage: moc_cli "
                   "<inspect|plan|simulate|trace-check|report|fsck|trace"
                   "|watch> [args]\n"
                   "       [--metrics-out <json>] [--trace-out <chrome-trace>]\n"
                   "       [--events-out <jsonl>] [--prom-out <prom-text>]\n"
                   "       [--series-out <jsonl>]\n";
            return 2;
        }
        const std::string command = remaining.front();
        std::vector<std::string> rest(remaining.begin() + 1, remaining.end());
        if (command == "watch") {
            rest = ExpandBoolFlags(std::move(rest),
                                   {"--once", "--watch-json"});
        }
        const Args args = ParseArgs(rest);
        int code = 2;
        if (command == "inspect") {
            code = RunInspect(args, out);
        } else if (command == "plan") {
            code = RunPlan(args, out);
        } else if (command == "simulate") {
            code = RunSimulate(args, out);
        } else if (command == "trace-check") {
            code = RunTraceCheck(args, out);
        } else if (command == "report") {
            code = RunReport(args, out);
        } else if (command == "fsck") {
            code = RunFsck(args, out);
        } else if (command == "trace") {
            code = RunTrace(args, out);
        } else if (command == "watch") {
            code = RunWatch(args, out);
        } else {
            err << "unknown subcommand: " << command << "\n";
            return 2;
        }
        if (!obs::ExportObs(obs_options)) {
            err << "warning: observability export failed\n";
        }
        return code;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace moc::cli

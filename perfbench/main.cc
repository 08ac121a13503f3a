/**
 * @file
 * Wall-clock checkpoint benchmark: entry point and shared pieces.
 *
 *   perfbench --workload train_pec|cluster_dedup|cluster_hot_delta
 *             --seed N --seconds S --trace 0|1 --dir SCRATCH
 *             [--smoke] [--corrupt]
 *
 * Prints one line per metric, then one JSON object as the last line of
 * stdout: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
 * checked operation failed, 2 on bad usage.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace perfbench {

double
NowS() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
Samples::Sum() const {
    double s = 0.0;
    for (const double x : v_) {
        s += x;
    }
    return s;
}

double
Samples::Quantile(double q) const {
    if (v_.empty()) {
        return 0.0;
    }
    std::vector<double> sorted = v_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

namespace {

/** One catalogued metric; mirrors BENCHMARK.json. */
struct MetricSpec {
    const char* name;
    const char* unit;
    bool per_layer;
};

constexpr MetricSpec kMetrics[] = {
    // End to end (untraced runs).
    {"setup_s", "s", false},
    {"ckpt.stall_s_p50", "s", false},
    {"ckpt.stall_s_tail", "s", false},
    {"restore_s_p50", "s", false},
    {"loop.steps_per_s", "1/s", false},
    {"persist_bytes_per_event", "B", false},
    {"peak_rss_mb", "MiB", false},
    // Per layer (traced runs).
    {"nn.train_step_s_p50", "s", true},
    {"train.tokens_per_s", "tok/s", true},
    {"train.final_loss", "nats", true},
    {"train.ckpt_time_share", "ratio", true},
    {"core.record_routing_s_p50", "s", true},
    {"core.serialize_gbps", "GB/s", true},
    {"core.ckpt_persist_bytes", "B", true},
    {"core.ckpt_snapshot_bytes", "B", true},
    {"core.recover_s_p50", "s", true},
    {"core.recover_memory_bytes", "B", true},
    {"core.recover_storage_bytes", "B", true},
    {"storage.put_calls", "count", true},
    {"storage.put_bytes", "B", true},
    {"storage.put_s_p50", "s", true},
    {"storage.put_s_tail", "s", true},
    {"storage.get_calls", "count", true},
    {"storage.get_bytes", "B", true},
    {"storage.get_s_p50", "s", true},
    {"storage.erase_calls", "count", true},
    {"storage.busy_s_per_event", "s", true},
    {"storage.write_amp", "ratio", true},
    {"ckpt.serialize_s_max", "s", true},
    {"ckpt.snapshot_makespan_s", "s", true},
    {"ckpt.barrier_wait_s", "s", true},
    {"ckpt.drain_s", "s", true},
    {"ckpt.shards_written", "count", true},
    {"ckpt.shards_deduped", "count", true},
    {"ckpt.dedup_hit_ratio", "ratio", true},
    {"ckpt.persist_failures", "count", true},
    {"delta.shards_delta", "count", true},
    {"delta.forced_full", "count", true},
    {"delta.saved_ratio", "ratio", true},
    {"delta.hash_chunks_gbps", "GB/s", true},
    {"delta.encode_s_per_shard", "s", true},
    {"delta.apply_s_per_shard", "s", true},
    {"restore.plan_s", "s", true},
    {"restore.exec_s", "s", true},
    {"restore.get_calls_per_shard", "count", true},
    {"restore.read_amp", "ratio", true},
    {"sys.memcpy_gbps", "GB/s", true},
    {"util.crc32c_gbps", "GB/s", true},
    {"util.crc32_gbps", "GB/s", true},
    {"util.fnv1a64_gbps", "GB/s", true},
    {"sys.fsync_s_p50", "s", true},
    {"obs.trace_overhead_ratio", "ratio", true},
};

}  // namespace

void
Result::Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::printf("FAILED: %s\n", what.c_str());
    }
}

void
Result::Add(const std::string& name, double value) {
    for (const MetricSpec& spec : kMetrics) {
        if (name == spec.name) {
            values_[name] = value;
            return;
        }
    }
    throw std::logic_error("metric not in the catalogue: " + name);
}

void
Result::Print(bool trace) {
    std::string metrics;
    for (const MetricSpec& spec : kMetrics) {
        if (spec.per_layer != trace) {
            continue;
        }
        const auto it = values_.find(spec.name);
        if (it == values_.end() && !trace) {
            Check(false, std::string("end-to-end metric not measured: ") +
                             spec.name);
        }
        double value = it == values_.end() ? 0.0 : it->second;
        value = std::isfinite(value) ? value : 0.0;
        std::printf("%-30s %-14.6g %s\n", spec.name, value, spec.unit);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        metrics += std::string(metrics.empty() ? "\"" : ", \"") + spec.name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit +
                   "\"}";
    }
    std::printf("failed_ops_ratio %.6g (%zu of %zu operations)\n",
                attempted_ > 0 ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0.0,
                failed_, attempted_);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                failed_ == 0 ? "true" : "false", attempted_, failed_,
                metrics.c_str());
    std::fflush(stdout);
}

double
TailQuantile(std::size_t n) {
    for (const double q : {0.999, 0.99, 0.95, 0.9, 0.8, 0.75}) {
        if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
            return q;
        }
    }
    return 0.5;
}

void
AddStorageMetrics(const StoreIo& io, double events, double logical_bytes,
                  Result& result) {
    result.Add("storage.put_calls", static_cast<double>(io.put.calls) / events);
    result.Add("storage.put_bytes", static_cast<double>(io.put.bytes) / events);
    result.Add("storage.put_s_p50", io.put.seconds.Median());
    const double tail = TailQuantile(io.put.seconds.size());
    result.Add("storage.put_s_tail", io.put.seconds.Quantile(tail));
    std::printf("storage.put_s_tail = p%g of %zu puts\n", tail * 100,
                io.put.seconds.size());
    result.Add("storage.get_calls", static_cast<double>(io.get.calls) / events);
    result.Add("storage.get_bytes", static_cast<double>(io.get.bytes) / events);
    result.Add("storage.get_s_p50", io.get.seconds.Median());
    result.Add("storage.erase_calls",
               static_cast<double>(io.erase.calls) / events);
    result.Add("storage.busy_s_per_event", io.BusySeconds() / events);
    result.Add("storage.write_amp",
               static_cast<double>(io.put.bytes) / logical_bytes);
}

double
PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
OpStats::Merge(const OpStats& o) {
    calls += o.calls;
    bytes += o.bytes;
    seconds.Append(o.seconds);
}

void
StoreIo::Merge(const StoreIo& o) {
    put.Merge(o.put);
    get.Merge(o.get);
    erase.Merge(o.erase);
    contains.Merge(o.contains);
}

double
StoreIo::BusySeconds() const {
    return put.seconds.Sum() + get.seconds.Sum() + erase.seconds.Sum() +
           contains.seconds.Sum();
}

void
TimedStore::Record(OpStats StoreIo::*op, double seconds,
                   std::uint64_t bytes) const {
    std::lock_guard<std::mutex> lock(mu_);
    OpStats& stats = io_.*op;
    ++stats.calls;
    stats.bytes += bytes;
    stats.seconds.Add(seconds);
}

void
TimedStore::Put(const std::string& key, Blob blob) {
    const std::uint64_t bytes = blob.size();
    const double t0 = NowS();
    base_.Put(key, std::move(blob));
    Record(&StoreIo::put, NowS() - t0, bytes);
}

std::optional<Blob>
TimedStore::Get(const std::string& key) const {
    const double t0 = NowS();
    std::optional<Blob> blob;
    try {
        blob = base_.Get(key);
    } catch (...) {
        Record(&StoreIo::get, NowS() - t0, 0);
        throw;
    }
    Record(&StoreIo::get, NowS() - t0, blob ? blob->size() : 0);
    return blob;
}

bool
TimedStore::Contains(const std::string& key) const {
    const double t0 = NowS();
    const bool found = base_.Contains(key);
    Record(&StoreIo::contains, NowS() - t0, 0);
    return found;
}

void
TimedStore::Erase(const std::string& key) {
    const double t0 = NowS();
    base_.Erase(key);
    Record(&StoreIo::erase, NowS() - t0, 0);
}

StoreIo
TimedStore::Take() {
    std::lock_guard<std::mutex> lock(mu_);
    StoreIo out = std::move(io_);
    io_ = StoreIo{};
    return out;
}

void
StartRepetition() {
    moc::obs::EventJournal::Instance().Clear();
    malloc_trim(0);
}

void
RemoveStore(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    ::sync();
}

std::uint64_t
FileStoreBytesWritten() {
    return moc::obs::MetricsRegistry::Instance()
        .GetCounter("filestore.write_bytes")
        .value();
}

bool
CorruptStoredBlob(const std::filesystem::path& root, const std::string& key) {
    // FileStore keeps each key in "<root>/<key>.blob".
    const std::filesystem::path path = root / (key + ".blob");
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!f) {
        return false;
    }
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    if (size <= 0) {
        return false;
    }
    f.seekg(size / 2);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(size / 2);
    f.write(&byte, 1);
    return static_cast<bool>(f);
}

bool
KeepGoing(const Options& options, double start_s, std::size_t reps,
          std::size_t min_reps, std::size_t samples) {
    if (options.smoke) {
        return reps < (options.trace ? 2U : 1U);
    }
    return reps < min_reps || samples < kMinSamples ||
           NowS() - start_s < options.seconds;
}

}  // namespace perfbench

namespace {

int
Usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload train_pec|cluster_dedup|"
                 "cluster_hot_delta --seed N --seconds S --trace 0|1 "
                 "--dir SCRATCH [--smoke] [--corrupt]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--dir" && has_value) {
            options.dir = argv[++i];
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--corrupt") {
            options.corrupt = true;
        } else {
            return Usage();
        }
    }
    if (options.dir.empty() || options.seconds < 0.0) {
        return Usage();
    }
    perfbench::Result result;
    try {
        std::filesystem::create_directories(options.dir);
        if (options.workload == "train_pec") {
            perfbench::RunTrainPec(options, result);
        } else if (options.workload == "cluster_dedup" ||
                   options.workload == "cluster_hot_delta") {
            perfbench::RunCluster(options, result);
        } else {
            return Usage();
        }
    } catch (const std::exception& e) {
        std::printf("FAILED: run aborted: %s\n", e.what());
        return 1;
    }
    result.Print(options.trace);
    return result.failed() == 0 ? 0 : 1;
}

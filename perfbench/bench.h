#ifndef MOC_PERFBENCH_BENCH_H_
#define MOC_PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the wall-clock checkpoint benchmark: run options, sample
 * statistics, the result record that becomes the final JSON line, and the
 * timed ObjectStore decorator that feeds every storage.* and restore.*
 * metric of a traced run.
 *
 * Everything here times the library from outside, through its public
 * functions; no span is added inside the library.
 */

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "storage/object_store.h"

namespace perfbench {

using moc::Blob;

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /** Target measuring time; see KeepGoing for the other stop rules. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory for the temp stores (created, left to the caller). */
    std::filesystem::path dir;
    /** Minimal run for the smoke test: one repetition per trace mode. */
    bool smoke = false;
    /** Corrupt one stored blob before the first restore (smoke test). */
    bool corrupt = false;
};

/** Monotonic seconds. */
double NowS();

/** A bag of timing samples. */
class Samples {
  public:
    void Add(double x) { v_.push_back(x); }
    std::size_t size() const { return v_.size(); }
    double Sum() const;
    /** Nearest-rank quantile, @p q in [0, 1]; 0 when empty. */
    double Quantile(double q) const;
    double Median() const { return Quantile(0.5); }
    void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

  private:
    std::vector<double> v_;
};

/**
 * Outcome of one run: the operation ledger plus the measured metrics.
 * Metric names and units come from the catalogue table in main.cc, which
 * mirrors BENCHMARK.json.
 */
class Result {
  public:
    /** Counts one checked operation; a false @p ok is a failure, named. */
    void Check(bool ok, const std::string& what);
    /** Records a catalogued metric. @throws std::logic_error if unknown. */
    void Add(const std::string& name, double value);
    /**
     * Prints one human-readable line per metric of the run's set (end to
     * end, or per layer when @p trace), then the JSON line. A per-layer
     * metric the workload does not exercise prints as 0; a missing end-to-end
     * metric is a failure.
     */
    void Print(bool trace);

    std::size_t failed() const { return failed_; }

  private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::map<std::string, double> values_;
};

/** Peak resident set of this process so far, MiB. */
double PeakRssMb();

/** Calls, bytes and per-call latency of one ObjectStore operation. */
struct OpStats {
    std::size_t calls = 0;
    std::uint64_t bytes = 0;
    Samples seconds;

    void Merge(const OpStats& o);
};

/** Everything the timed store saw since the last Take(). */
struct StoreIo {
    OpStats put;
    OpStats get;
    OpStats erase;
    OpStats contains;

    void Merge(const StoreIo& o);
    /** Summed wall time of every call (calls may overlap across threads). */
    double BusySeconds() const;
};

/**
 * ObjectStore decorator that times every call into the store below it.
 * Thread-safe: the persist workers of the cluster engine call it
 * concurrently. Used only in traced runs.
 */
class TimedStore final : public moc::ObjectStore {
  public:
    explicit TimedStore(moc::ObjectStore& base) : base_(base) {}

    void Put(const std::string& key, Blob blob) override;
    std::optional<Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    moc::Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

    /** Returns what was recorded since the previous call and resets it. */
    StoreIo Take();

  private:
    void Record(OpStats StoreIo::*op, double seconds, std::uint64_t bytes) const;

    moc::ObjectStore& base_;
    mutable std::mutex mu_;
    mutable StoreIo io_;
};

/**
 * Adds the storage.* metrics of the checkpoint events seen in @p io:
 * per-event call and byte counts, latencies, busy time, and write
 * amplification against @p logical_bytes the events asked to persist.
 */
void AddStorageMetrics(const StoreIo& io, double events, double logical_bytes,
                       Result& result);

/**
 * Starts a repetition like a fresh job: empties the process-wide event
 * journal, which otherwise grows with every checkpoint, and returns freed
 * heap to the system, so peak memory does not depend on how many
 * repetitions a run fits in.
 */
void StartRepetition();

/**
 * Deletes a repetition's store directory and flushes the filesystem, so the
 * deletion's journal commit (and, on a filesystem mounted with online
 * discard, its discards) completes here instead of inside the next
 * repetition's timed fsyncs.
 */
void RemoveStore(const std::filesystem::path& dir);

/** Bytes FileStore::Put has written so far in this process. */
std::uint64_t FileStoreBytesWritten();

/** Flips one byte in the middle of the file backing @p key under @p root. */
bool CorruptStoredBlob(const std::filesystem::path& root, const std::string& key);

/**
 * Highest of the usual tail quantiles that leaves at least 10 of @p n
 * samples beyond it (0.5 when even the median does not).
 */
double TailQuantile(std::size_t n);

/** Sizes the calibration probes run at: the workload's own shapes. */
struct ProbeShape {
    /** Representative shard (or serialized unit) size, bytes. */
    std::size_t shard_bytes = 0;
    /** Delta chunk size of the workload (the engine default when off). */
    std::size_t chunk_bytes = 0;
    /** Chunks changed per shard per event in the encode/apply probe. */
    std::size_t changed_chunks = 1;
};

/**
 * Runs the calibration probes and adds their metrics: memcpy, CRC-32C,
 * CRC-32 and FNV-1a 64 throughput, HashChunks throughput, EncodeDelta and
 * ApplyDelta time per shard, SerializeParamList throughput over @p groups,
 * and the latency of fsync on a small file in @p dir.
 */
void RunProbes(const ProbeShape& shape, const std::vector<moc::ParamGroup>& groups,
               const std::filesystem::path& dir, Result& result);

/**
 * The _tail quantile and the headline samples every run collects at least:
 * p80 leaves at least 10 of 50 samples beyond it.
 */
constexpr double kTailQuantile = 0.80;
constexpr std::size_t kMinSamples = 50;

/** Workload entry points; each fills @p result. */
void RunTrainPec(const Options& options, Result& result);
void RunCluster(const Options& options, Result& result);

/**
 * Repetition policy shared by the workloads: keep repeating the fixed
 * workload body until the measuring time is spent, at least @p min_reps
 * repetitions ran and at least kMinSamples headline samples exist.
 */
bool KeepGoing(const Options& options, double start_s, std::size_t reps,
               std::size_t min_reps, std::size_t samples);

}  // namespace perfbench

#endif  // MOC_PERFBENCH_BENCH_H_

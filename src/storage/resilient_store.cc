#include "storage/resilient_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

obs::Counter&
StoreCounter(const char* suffix) {
    return obs::MetricsRegistry::Instance().GetCounter(std::string("store.") +
                                                       suffix);
}

// Verification uses CRC-32C, the one checksum family of the checkpoint
// path (see util/crc32.h).
std::uint32_t
BlobCrc(const Blob& blob) {
    return Crc32c(blob.data(), blob.size());
}

}  // namespace

ResilientStore::ResilientStore(ObjectStore& base, const RetryPolicy& policy,
                               RepairSource repair)
    : base_(base), policy_(policy), repair_(std::move(repair)),
      rng_(policy.seed) {
    MOC_CHECK_ARG(policy.max_attempts >= 1, "max_attempts must be >= 1");
    MOC_CHECK_ARG(policy.initial_backoff_s >= 0.0 && policy.max_backoff_s >= 0.0,
                  "backoff times must be >= 0");
    MOC_CHECK_ARG(policy.backoff_multiplier >= 1.0,
                  "backoff_multiplier must be >= 1");
    MOC_CHECK_ARG(policy.jitter >= 0.0 && policy.jitter <= 1.0,
                  "jitter must be in [0,1]");
}

Seconds
ResilientStore::Now() {
    return static_cast<double>(obs::Tracer::NowNs()) * 1e-9;
}

void
ResilientStore::Backoff(std::size_t attempt) const {
    double delay = policy_.initial_backoff_s;
    for (std::size_t i = 0; i < attempt; ++i) {
        delay *= policy_.backoff_multiplier;
    }
    delay = std::min(delay, static_cast<double>(policy_.max_backoff_s));
    if (policy_.jitter > 0.0) {
        std::lock_guard<std::mutex> lock(rng_mu_);
        delay *= 1.0 + rng_.Uniform(-policy_.jitter, policy_.jitter);
    }
    if (delay > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
}

void
ResilientStore::CheckDeadline(Seconds start, const std::string& key,
                              const char* op) const {
    if (policy_.op_deadline_s > 0.0 && Now() - start > policy_.op_deadline_s) {
        static obs::Counter& timeouts = StoreCounter("timeouts_total");
        timeouts.Add();
        throw StoreError(StoreErrorKind::kTimeout, key,
                         std::string(op) + " deadline exceeded");
    }
}

void
ResilientStore::Put(const std::string& key, Blob blob) {
    const std::uint32_t crc = BlobCrc(blob);
    Put(key, std::move(blob), crc);
}

void
ResilientStore::Put(const std::string& key, Blob blob, std::uint32_t crc) {
    const Seconds start = Now();
    static obs::Counter& retries = StoreCounter("retries_total");
    static obs::Counter& verify_failures = StoreCounter("put_verify_failures_total");
    std::string last_error = "no attempt made";
    for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
        if (attempt > 0) {
            retries.Add();
            Backoff(attempt - 1);
        }
        CheckDeadline(start, key, "put");
        try {
            // The write runs in the caller's phase (a persist worker's
            // "persist"); the read-back below is the "verify" segment the
            // critical-path profiler splits it from.
            const obs::TraceSpan span("store.put", "storage");
            base_.Put(key, blob);  // keep our copy for verify/retry
        } catch (const StoreError& e) {
            if (e.kind() != StoreErrorKind::kTransient) {
                throw;
            }
            last_error = e.what();
            continue;
        }
        if (!policy_.verify_after_write) {
            return;
        }
        obs::TraceContext verify_ctx = obs::CurrentTraceContext();
        verify_ctx.phase = "verify";
        const obs::TraceContextScope verify_scope(verify_ctx);
        const obs::TraceSpan span("store.verify", "storage");
        std::optional<Blob> readback;
        try {
            readback = base_.Get(key);
        } catch (const StoreError&) {
            readback = std::nullopt;  // unreadable counts as unverified
        } catch (const std::runtime_error&) {
            readback = std::nullopt;  // e.g. FileStore CRC-trailer failures
        }
        if (readback.has_value() && BlobCrc(*readback) == crc) {
            return;
        }
        verify_failures.Add();
        last_error = readback.has_value() ? "read-back CRC mismatch"
                                          : "read-back found no blob";
    }
    static obs::Counter& timeouts = StoreCounter("timeouts_total");
    timeouts.Add();
    throw StoreError(StoreErrorKind::kTimeout, key,
                     "put failed after " + std::to_string(policy_.max_attempts) +
                         " attempts: " + last_error);
}

std::optional<Blob>
ResilientStore::Get(const std::string& key) const {
    const Seconds start = Now();
    static obs::Counter& retries = StoreCounter("retries_total");
    std::string last_error = "no attempt made";
    for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
        if (attempt > 0) {
            retries.Add();
            Backoff(attempt - 1);
        }
        CheckDeadline(start, key, "get");
        try {
            return base_.Get(key);
        } catch (const StoreError& e) {
            if (e.kind() != StoreErrorKind::kTransient) {
                throw;
            }
            last_error = e.what();
        }
    }
    static obs::Counter& timeouts = StoreCounter("timeouts_total");
    timeouts.Add();
    throw StoreError(StoreErrorKind::kTimeout, key,
                     "get failed after " + std::to_string(policy_.max_attempts) +
                         " attempts: " + last_error);
}

std::optional<Blob>
ResilientStore::GetChecked(const std::string& key,
                           std::uint32_t expected_crc) const {
    const Seconds start = Now();
    static obs::Counter& retries = StoreCounter("retries_total");
    static obs::Counter& corrupt_reads = StoreCounter("corrupt_reads_total");
    static obs::Counter& read_repairs = StoreCounter("read_repairs_total");
    bool saw_damage = false;
    for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
        if (attempt > 0) {
            retries.Add();
            Backoff(attempt - 1);
        }
        CheckDeadline(start, key, "get");
        std::optional<Blob> blob;
        try {
            blob = base_.Get(key);
        } catch (const StoreError& e) {
            if (e.kind() == StoreErrorKind::kTransient) {
                continue;  // retry; transient failures are not damage
            }
            saw_damage = true;  // kCorrupt from the backend's own CRC layer
            blob = std::nullopt;
        } catch (const std::runtime_error&) {
            saw_damage = true;  // untyped backend corruption report
            blob = std::nullopt;
        }
        if (blob.has_value()) {
            if (BlobCrc(*blob) == expected_crc) {
                return blob;
            }
            corrupt_reads.Add();
            saw_damage = true;
            // A re-read may still succeed: read_corrupt-style faults damage
            // the returned copy, not the stored bytes.
            continue;
        }
        if (!saw_damage) {
            return std::nullopt;  // genuinely absent
        }
        break;  // stored bytes are damaged; retrying cannot help
    }
    // Stored copy unusable: try the replica source (read repair).
    if (repair_ != nullptr) {
        if (auto replica = repair_(key);
            replica.has_value() && BlobCrc(*replica) == expected_crc) {
            read_repairs.Add();
            MOC_WARN << "store: read-repaired " << key << " from a replica";
            try {
                // Put through ourselves: retried and (optionally) verified.
                const_cast<ResilientStore*>(this)->Put(key, *replica,
                                                       expected_crc);
            } catch (const StoreError&) {
                // Repair write failed; the replica bytes are still good.
            }
            return replica;
        }
    }
    if (saw_damage) {
        throw StoreError(StoreErrorKind::kCorrupt, key,
                         "stored bytes fail CRC verification and no intact "
                         "replica is available");
    }
    throw StoreError(StoreErrorKind::kTimeout, key,
                     "checked get failed after " +
                         std::to_string(policy_.max_attempts) + " attempts");
}

bool
ResilientStore::Contains(const std::string& key) const {
    return base_.Contains(key);
}

void
ResilientStore::Erase(const std::string& key) {
    base_.Erase(key);
}

std::vector<std::string>
ResilientStore::Keys() const {
    return base_.Keys();
}

Bytes
ResilientStore::TotalBytes() const {
    return base_.TotalBytes();
}

std::size_t
ResilientStore::Count() const {
    return base_.Count();
}

}  // namespace moc

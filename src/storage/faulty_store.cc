#include "storage/faulty_store.h"

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/logging.h"

namespace moc {

namespace {

void
CheckProbability(double p, const char* name) {
    MOC_CHECK_ARG(p >= 0.0 && p <= 1.0,
                  "fault probability " << name << " out of [0,1]: " << p);
}

obs::Counter&
InjectedCounter(const char* suffix) {
    return obs::MetricsRegistry::Instance().GetCounter(
        std::string("faultystore.") + suffix);
}

}  // namespace

bool
StorageFaultProfile::Active() const {
    return put_transient_error > 0.0 || get_transient_error > 0.0 ||
           torn_write > 0.0 || bit_flip > 0.0 || lost_write > 0.0 ||
           read_corrupt > 0.0 || latency_spike > 0.0;
}

FaultyStore::FaultyStore(ObjectStore& base, std::uint64_t seed)
    : base_(base), seed_(seed) {}

void
FaultyStore::Arm(const StorageFaultProfile& profile) {
    CheckProbability(profile.put_transient_error, "put_transient_error");
    CheckProbability(profile.get_transient_error, "get_transient_error");
    CheckProbability(profile.torn_write, "torn_write");
    CheckProbability(profile.bit_flip, "bit_flip");
    CheckProbability(profile.lost_write, "lost_write");
    CheckProbability(profile.read_corrupt, "read_corrupt");
    CheckProbability(profile.latency_spike, "latency_spike");
    MOC_CHECK_ARG(profile.latency_spike_seconds >= 0.0,
                  "latency_spike_seconds must be >= 0");
    std::lock_guard<std::mutex> lock(mu_);
    profile_ = profile;
    armed_ = true;
}

void
FaultyStore::Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
}

bool
FaultyStore::armed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_;
}

InjectedFaultCounts
FaultyStore::injected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_;
}

Rng
FaultyStore::OpStream(const std::string& key) const {
    // Caller holds mu_. Each decision depends only on (seed, key, how many
    // armed ops this key has seen), never on how threads interleave.
    const std::uint64_t op = op_index_[key]++;
    return Rng(seed_ ^ Fnv1a64(key.data(), key.size()) ^
               (op * 0xD6E8FEB86659FD93ULL));
}

bool
FaultyStore::Roll(Rng& rng, double p) {
    // Always draw so the stream position (and therefore the whole fault
    // sequence) does not depend on which probabilities are zero.
    return rng.Uniform() < p;
}

Seconds
FaultyStore::RollLatencySpike(Rng& rng) const {
    // Caller holds mu_.
    if (!Roll(rng, profile_.latency_spike)) {
        return 0.0;
    }
    ++injected_.latency_spikes;
    return profile_.latency_spike_seconds;
}

void
FaultyStore::SleepLatencySpike(Seconds delay, const char* op) {
    if (delay <= 0.0) {
        return;
    }
    static obs::Counter& spikes = InjectedCounter("latency_spikes");
    spikes.Add();
    MOC_DEBUG << "faultystore: latency spike on " << op;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

void
FaultyStore::Put(const std::string& key, Blob blob) {
    enum class WriteFault { kNone, kTransient, kTorn, kBitFlip, kLost };
    WriteFault fault = WriteFault::kNone;
    std::uint64_t victim_bit = 0;
    Seconds delay = 0.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (armed_) {
            Rng rng = OpStream(key);
            delay = RollLatencySpike(rng);
            if (Roll(rng, profile_.put_transient_error)) {
                fault = WriteFault::kTransient;
                ++injected_.transient_errors;
            } else if (Roll(rng, profile_.lost_write)) {
                fault = WriteFault::kLost;
                ++injected_.lost_writes;
            } else if (Roll(rng, profile_.torn_write) && !blob.empty()) {
                fault = WriteFault::kTorn;
                victim_bit = rng.UniformInt(blob.size());  // new length
                ++injected_.torn_writes;
            } else if (Roll(rng, profile_.bit_flip) && !blob.empty()) {
                fault = WriteFault::kBitFlip;
                victim_bit = rng.UniformInt(blob.size() * 8);
                ++injected_.bit_flips;
            }
        }
    }
    SleepLatencySpike(delay, "put");
    switch (fault) {
        case WriteFault::kTransient: {
            static obs::Counter& c = InjectedCounter("transient_errors");
            c.Add();
            throw StoreError(StoreErrorKind::kTransient, key,
                             "injected transient write error");
        }
        case WriteFault::kLost: {
            static obs::Counter& c = InjectedCounter("lost_writes");
            c.Add();
            return;  // reports success, stores nothing
        }
        case WriteFault::kTorn: {
            static obs::Counter& c = InjectedCounter("torn_writes");
            c.Add();
            blob.resize(static_cast<std::size_t>(victim_bit));
            break;
        }
        case WriteFault::kBitFlip: {
            static obs::Counter& c = InjectedCounter("bit_flips");
            c.Add();
            blob[static_cast<std::size_t>(victim_bit / 8)] ^=
                static_cast<std::uint8_t>(1u << (victim_bit % 8));
            break;
        }
        case WriteFault::kNone:
            break;
    }
    base_.Put(key, std::move(blob));
}

std::optional<Blob>
FaultyStore::Get(const std::string& key) const {
    bool transient = false;
    bool corrupt = false;
    std::uint64_t raw_bit = 0;
    Seconds delay = 0.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (armed_) {
            Rng rng = OpStream(key);
            delay = RollLatencySpike(rng);
            if (Roll(rng, profile_.get_transient_error)) {
                transient = true;
                ++injected_.transient_errors;
            } else if (Roll(rng, profile_.read_corrupt)) {
                corrupt = true;
                raw_bit = rng.Next();
                ++injected_.corrupt_reads;
            }
        }
    }
    SleepLatencySpike(delay, "get");
    if (transient) {
        static obs::Counter& c = InjectedCounter("transient_errors");
        c.Add();
        throw StoreError(StoreErrorKind::kTransient, key,
                         "injected transient read error");
    }
    auto blob = base_.Get(key);
    if (corrupt && blob.has_value() && !blob->empty()) {
        static obs::Counter& c = InjectedCounter("corrupt_reads");
        c.Add();
        const std::uint64_t bit = raw_bit % (blob->size() * 8);
        (*blob)[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
    }
    return blob;
}

bool
FaultyStore::Contains(const std::string& key) const {
    return base_.Contains(key);
}

void
FaultyStore::Erase(const std::string& key) {
    base_.Erase(key);
}

std::vector<std::string>
FaultyStore::Keys() const {
    return base_.Keys();
}

Bytes
FaultyStore::TotalBytes() const {
    return base_.TotalBytes();
}

std::size_t
FaultyStore::Count() const {
    return base_.Count();
}

}  // namespace moc

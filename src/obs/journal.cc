#include "obs/journal.h"

#include <sstream>
#include <stdexcept>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "util/json.h"

namespace moc::obs {

namespace {

struct KindName {
    EventKind kind;
    const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kCkptBegin, "ckpt_begin"},
    {EventKind::kCkptEnd, "ckpt_end"},
    {EventKind::kSnapshot, "snapshot"},
    {EventKind::kPersist, "persist"},
    {EventKind::kFault, "fault"},
    {EventKind::kRecoveryBegin, "recovery_begin"},
    {EventKind::kRecoveryEnd, "recovery_end"},
    {EventKind::kDynamicKBump, "dynamic_k_bump"},
    {EventKind::kStorageFault, "storage_fault"},
    {EventKind::kDegradedRecovery, "degraded_recovery"},
    {EventKind::kClusterSeal, "cluster_seal"},
    {EventKind::kStall, "stall"},
    {EventKind::kPeerDeath, "peer_death"},
    {EventKind::kStraggler, "straggler"},
    {EventKind::kMembershipChange, "membership_change"},
    {EventKind::kRejoin, "rejoin"},
};

}  // namespace

std::uint64_t
JournalEpochNs() {
    // Latched at first use (first append or first export), for relative
    // wall stamps.
    static const std::uint64_t epoch = Tracer::NowNs();
    return epoch;
}

const char*
EventKindName(EventKind kind) {
    for (const auto& entry : kKindNames) {
        if (entry.kind == kind) {
            return entry.name;
        }
    }
    return "unknown";
}

EventKind
EventKindFromName(const std::string& name) {
    for (const auto& entry : kKindNames) {
        if (name == entry.name) {
            return entry.kind;
        }
    }
    throw std::invalid_argument("unknown event type '" + name + "'");
}

EventJournal&
EventJournal::Instance() {
    static EventJournal* journal = new EventJournal();
    return *journal;
}

std::uint64_t
EventJournal::Append(JournalEvent event) {
    // Latch the epoch before reading the clock: on the first-ever append the
    // opposite order would latch an epoch *later* than now_ns and wrap.
    const std::uint64_t epoch = JournalEpochNs();
    const std::uint64_t now_ns = Tracer::NowNs();
    // Stamp checkpoint-event identity from the thread's trace context, so
    // journal records correlate with spans without every call site having to
    // thread generation/rank by hand. Explicit fields win over the context.
    const TraceContext& ctx = CurrentTraceContext();
    if (event.gen == 0) {
        event.gen = ctx.generation;
    }
    if (event.scope == kGlobalScope && ctx.rank >= 0) {
        event.scope = ctx.rank;
    }
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    event.wall_s = static_cast<double>(now_ns - epoch) / 1e9;
    if (events_.size() >= kMaxEvents) {
        ++dropped_;
        // Surfaced by `moc_cli report`: nonzero means the exported journal
        // is a prefix of what actually happened.
        static Counter& dropped_ctr =
            MetricsRegistry::Instance().GetCounter("obs.journal.dropped");
        dropped_ctr.Add();
        return event.seq;
    }
    const std::uint64_t seq = event.seq;
    events_.push_back(std::move(event));
    return seq;
}

std::vector<JournalEvent>
EventJournal::Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::size_t
EventJournal::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::uint64_t
EventJournal::dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void
EventJournal::Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    next_seq_ = 0;
    dropped_ = 0;
}

void
WriteEventJsonl(json::Writer& w, const JournalEvent& e, double t) {
    w.BeginObject().Field("type", EventKindName(e.kind)).Field("seq", e.seq)
        .Field("t", t).Field("iter", e.iteration).Field("scope", e.scope)
        .Field("gen", e.gen).Field("bytes", e.bytes).Field("plt", e.plt)
        .Field("k", e.k).Field("detail", e.detail);
    if (!e.role.empty()) {
        w.Field("role", e.role);
    }
    w.EndObject().EndLine();
}

std::string
EventsJsonl() {
    const auto events = EventJournal::Instance().Collect();
    json::Writer w;
    w.BeginObject().Field("type", "meta");
    WriteRunMetaFields(w);
    w.Field("clock_epoch_ns", JournalEpochNs()).Field("events", events.size())
        .EndObject().EndLine();
    for (const JournalEvent& e : events) {
        WriteEventJsonl(w, e, e.wall_s);
    }
    return w.Take();
}

bool
WriteEventsJsonl(const std::string& path) {
    return WriteTextFile(path, EventsJsonl(), "event journal");
}

JournalEvent
ParseEventRecord(const json::Value& record) {
    JournalEvent e;
    e.kind = EventKindFromName(record.At("type").AsString());
    e.seq = static_cast<std::uint64_t>(record.NumberOr("seq", 0.0));
    e.wall_s = record.NumberOr("t", 0.0);
    e.iteration = static_cast<std::uint64_t>(record.NumberOr("iter", 0.0));
    e.scope = static_cast<std::int64_t>(
        record.NumberOr("scope", static_cast<double>(kGlobalScope)));
    e.gen = static_cast<std::uint64_t>(record.NumberOr("gen", 0.0));
    e.bytes = static_cast<std::uint64_t>(record.NumberOr("bytes", 0.0));
    e.plt = record.NumberOr("plt", -1.0);
    e.k = static_cast<std::uint64_t>(record.NumberOr("k", 0.0));
    e.detail = record.StringOr("detail", "");
    e.role = record.StringOr("role", "");
    return e;
}

std::vector<JournalEvent>
ParseEventsJsonl(const std::string& text) {
    std::vector<JournalEvent> events;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
        }
        json::Value record;
        try {
            record = json::Parse(line);
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("events line " + std::to_string(lineno) +
                                        ": " + e.what());
        }
        if (record.At("type").AsString() == "meta") {
            continue;
        }
        events.push_back(ParseEventRecord(record));
    }
    return events;
}

}  // namespace moc::obs

#ifndef MOC_OBS_JOURNAL_H_
#define MOC_OBS_JOURNAL_H_

/**
 * @file
 * The structured event journal: a process-wide, append-only buffer of typed
 * fault-tolerance events (checkpoints, snapshot/persist writes, faults,
 * recoveries, Dynamic-K transitions).
 *
 * Where the metrics registry answers "how much, in total", the journal
 * answers "what happened, when": every record is stamped with a sequence
 * number, wall-clock seconds since process start, the training iteration,
 * and the quantities the paper reasons about (bytes moved, PLT, K). The
 * journal is exported as JSONL via `--events-out` (see obs/export.h) and
 * read back by `moc_cli report` and the round-trip tests via
 * ParseEventsJsonl().
 *
 * Events are emitted per checkpoint / fault, not per token, so a mutex-
 * protected vector is plenty; a generous cap bounds memory on pathological
 * runs (overflow increments dropped() instead of growing).
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace moc::json {
class Value;
class Writer;
}  // namespace moc::json

namespace moc::obs {

/** The typed event vocabulary (docs/OBSERVABILITY.md catalogues each). */
enum class EventKind : std::uint8_t {
    kCkptBegin,     ///< a checkpoint event started
    kCkptEnd,       ///< ...and finished (bytes = snapshot + persist total)
    kSnapshot,      ///< one unit written to node memory (detail = store key)
    kPersist,       ///< one unit written to persistent storage
    kFault,         ///< node failures injected (detail = "nodes=...")
    kRecoveryBegin, ///< recovery planning/restore started
    kRecoveryEnd,   ///< model restored (iteration = restart point)
    kDynamicKBump,  ///< Dynamic-K escalated (k = new K_snapshot)
    kStorageFault,  ///< storage-fault window armed/disarmed, or a persist
                    ///< shard write failed (detail says which)
    kDegradedRecovery, ///< a key restored from older bytes than planned, or
                       ///< the restart generation fell back (detail = why)
    kClusterSeal,      ///< a cluster checkpoint generation finished its
                       ///< commit protocol (detail = sealed/unsealed + shard
                       ///< counts; bytes = physical bytes written)
    kStall,            ///< the stall watchdog (obs/watchdog.h) caught an
                       ///< in-flight checkpoint op over its phase deadline
                       ///< (scope = rank, detail = phase/key/budget/elapsed)
    kPeerDeath,        ///< the transport declared a peer dead — connection
                       ///< EOF or heartbeat timeout (scope = peer when it is
                       ///< a rank, detail = cause/silence/epoch; see
                       ///< docs/TRANSPORT.md)
    kStraggler,        ///< the cluster aggregator (obs/cluster_view.h)
                       ///< flagged one rank far behind the cluster median in
                       ///< its current phase (scope = rank, detail =
                       ///< phase/elapsed/median)
    kMembershipChange, ///< the membership table (ckpt/membership.h) moved a
                       ///< rank between states (scope = rank, detail =
                       ///< from->to + cause/epoch + membership version)
    kRejoin,           ///< a previously dead rank was heard from again under
                       ///< a fresh epoch — admitted by the membership table
                       ///< or resurrected in the cluster health view
                       ///< (scope = rank, detail = epoch/incarnation)
};

/** Stable wire name of @p kind ("ckpt_begin", "snapshot", ...). */
const char* EventKindName(EventKind kind);

/** Inverse of EventKindName; throws std::invalid_argument on junk. */
EventKind EventKindFromName(const std::string& name);

/** Scope value meaning "the whole job" rather than one node. */
inline constexpr std::int64_t kGlobalScope = -1;

/** One journal record. Fields that don't apply to a kind keep defaults. */
struct JournalEvent {
    EventKind kind = EventKind::kSnapshot;
    /** Append order, assigned by the journal. */
    std::uint64_t seq = 0;
    /** Wall-clock seconds since process start, stamped on Append. */
    double wall_s = 0.0;
    /** Training iteration the event refers to. */
    std::uint64_t iteration = 0;
    /** Node id the event is scoped to, or kGlobalScope. */
    std::int64_t scope = kGlobalScope;
    /** Cluster checkpoint generation (0 = none); stamped on Append from the
        thread's TraceContext when the caller leaves it 0. */
    std::uint64_t gen = 0;
    /** Bytes moved by the event (0 when not applicable). */
    std::uint64_t bytes = 0;
    /** Ledger PLT at the event, or a negative value for "not sampled". */
    double plt = -1.0;
    /** K_snapshot in force, 0 for "not sampled". */
    std::uint64_t k = 0;
    /** Cluster role the event came from; empty in-process, filled by the
        multi-file merge (obs/merge.h) so a cluster journal stays
        attributable per process. The explicit initializer keeps existing
        designated-initializer call sites warning-free. */
    std::string role{};
    /** Free-form context: store key, failed node list, ... */
    std::string detail{};
};

/**
 * Process-wide append-only event buffer.
 */
class EventJournal {
  public:
    /** Hard cap on buffered events; appends beyond it are counted, dropped. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    static EventJournal& Instance();

    /**
     * Stamps seq, wall_s, and (from the calling thread's TraceContext, when
     * the caller left them defaulted) gen and scope on @p event, then
     * buffers it.
     * @return the assigned sequence number.
     */
    std::uint64_t Append(JournalEvent event);

    /** Copy of every buffered event, in append order. */
    std::vector<JournalEvent> Collect() const;

    std::size_t size() const;

    /** Events discarded because the buffer hit kMaxEvents. */
    std::uint64_t dropped() const;

    /** Empties the buffer and restarts sequence numbering (for re-runs). */
    void Clear();

  private:
    EventJournal() = default;

    mutable std::mutex mu_;
    std::vector<JournalEvent> events_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * Nanoseconds (Tracer clock) latched at the journal's first append — the
 * zero point of every event's wall_s. Exported in the JSONL meta record as
 * `clock_epoch_ns` so a merge can rebase relative stamps onto an absolute
 * (and, with `clock_offset_ns`, coordinator-aligned) timeline.
 */
std::uint64_t JournalEpochNs();

/**
 * The journal as JSON Lines: one run-metadata header record
 * (`"type": "meta"`), then one record per event in append order.
 */
std::string EventsJsonl();

/**
 * Appends @p e to @p w as one JSONL record stamped `"t": @p t`: `type`
 * first, `role` only when set. The one journal-event encoder, shared by
 * EventsJsonl() and the merged cluster journal (obs/merge.h).
 */
void WriteEventJsonl(json::Writer& w, const JournalEvent& e, double t);

/**
 * Decodes one non-meta journal record; absent fields keep their defaults.
 * @throws std::invalid_argument on a missing or unknown `type`.
 */
JournalEvent ParseEventRecord(const json::Value& record);

/** Writes EventsJsonl() to @p path, creating parent directories. */
bool WriteEventsJsonl(const std::string& path);

/**
 * Parses JSONL produced by EventsJsonl back into events. Blank lines and
 * `"type": "meta"` records are skipped.
 * @throws std::invalid_argument on malformed lines or unknown event types.
 */
std::vector<JournalEvent> ParseEventsJsonl(const std::string& text);

}  // namespace moc::obs

#endif  // MOC_OBS_JOURNAL_H_

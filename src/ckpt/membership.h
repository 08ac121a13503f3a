#ifndef MOC_CKPT_MEMBERSHIP_H_
#define MOC_CKPT_MEMBERSHIP_H_

/**
 * @file
 * Coordinator-side cluster membership: the state machine that decides which
 * ranks a checkpoint generation may be sealed against, and the join
 * handshake a respawned rank runs to get back in.
 *
 * Per-rank lifecycle:
 *
 *     joined --MarkLive--> live --MarkSuspect--> suspect
 *        |                  | ^______MarkLive______|  |
 *        |                  |                         |
 *        +---- OnPeerDeath(cause) ---> dead <---------+
 *                                       |
 *                    OnJoinRequest (fresh epoch, incarnation+1)
 *                                       v
 *                                   rejoined --MarkLive--> live
 *
 * Admission is epoch-gated: a kJoinRequest frame carries the rank's fresh
 * transport session epoch, and the table rejects any epoch not strictly
 * newer than the last one it admitted for that rank. A zombie — the old
 * incarnation of a respawned rank, or a partitioned process coming back
 * after its replacement — therefore can never re-enter, and (because the
 * transport's own EpochGate drops its frames) can never ack a stale
 * generation either. See docs/TRANSPORT.md for the wire handshake and
 * docs/FAULT_MODEL.md for the recovery matrix.
 *
 * Every transition journals exactly one `membership_change` event and bumps
 * the table version; checkpoint barriers seal against LiveRanks() at the
 * version current when the barrier opened, and the sealed-against set is
 * persisted next to the manifest ("meta/membership") so `moc_cli fsck` can
 * classify generations that reference ranks no longer in the membership.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/placement.h"
#include "net/frame.h"

namespace moc::ckpt {

/** Store key the membership document is persisted under. */
inline constexpr const char* kMembershipKey = "meta/membership";

/** Where a rank sits in the membership lifecycle. */
enum class MemberState : std::uint8_t {
    kJoined,   ///< admitted, not yet heard from in a barrier
    kLive,     ///< participating; seals count it
    kSuspect,  ///< missed a barrier deadline but transport still sees it
    kDead,     ///< transport declared it dead; evicted from barriers
    kRejoined, ///< re-admitted after death under a fresh epoch
};

/** Stable name of @p state ("joined", "live", ...). */
const char* MemberStateName(MemberState state);

/** One rank's membership record. */
struct MemberInfo {
    std::size_t rank = 0;
    MemberState state = MemberState::kJoined;
    /** Last transport session epoch admitted for this rank. */
    std::uint32_t epoch = 0;
    /** Times this rank has (re)joined; 1 for the initial admission. */
    std::uint32_t incarnation = 1;
    /** Why it died, when state is kDead ("eof", "heartbeat_timeout", ...). */
    std::string death_cause;
};

/** Wire payload of MsgType::kJoinRequest. */
struct JoinRequest {
    std::size_t rank = 0;
    /** The *rank's* view of its incarnation (0 on a fresh process). */
    std::uint32_t incarnation = 0;
};

Blob EncodeJoinRequest(const JoinRequest& request);
/** @throws std::runtime_error on a truncated payload. */
JoinRequest DecodeJoinRequest(const Blob& payload);

/** Wire payload of MsgType::kJoinAccept. */
struct JoinAccept {
    bool accepted = false;
    /** Why not, when rejected ("stale epoch", ...). */
    std::string reason;
    /** Membership version the admission landed at. */
    std::uint64_t membership_version = 0;
    /** The placement plan the rank must checkpoint under. */
    PlacementPlan placement;
};

Blob EncodeJoinAccept(const JoinAccept& accept);
/** @throws std::runtime_error on a truncated payload. */
JoinAccept DecodeJoinAccept(const Blob& payload);

/** Appends the expert->hosts table of @p plan to @p writer. */
void EncodePlacementAssignments(const PlacementPlan& plan,
                                net::PayloadWriter& writer);

/** Inverse of EncodePlacementAssignments (version + assignments only). */
PlacementPlan DecodePlacementAssignments(net::PayloadReader& reader);

/** A parse of the persisted membership document ("meta/membership"). */
struct MembershipSnapshot {
    std::uint64_t version = 0;
    std::vector<MemberInfo> members;

    /** Ranks in kJoined/kLive/kRejoined state. */
    std::vector<std::size_t> LiveRanks() const;
};

/** @throws std::invalid_argument on malformed or wrong-schema JSON. */
MembershipSnapshot ParseMembershipJson(const std::string& text);

/**
 * The coordinator's membership table. Thread-safe; every state transition
 * journals one `membership_change` event and bumps version().
 */
class MembershipTable {
  public:
    /** Admits @p rank at initial connect (state kJoined). */
    void AdmitInitial(std::size_t rank, std::uint32_t epoch);

    /** Marks @p rank live (it completed a barrier). No-op when dead. */
    void MarkLive(std::size_t rank);

    /** Marks @p rank suspect (missed a deadline, transport still alive). */
    void MarkSuspect(std::size_t rank);

    /** Transport declared @p rank dead: evict it. Idempotent per death. */
    void OnPeerDeath(std::size_t rank, const std::string& cause);

    /**
     * Handles a kJoinRequest from @p rank under transport session
     * @p epoch. Epochs not strictly newer than the last admitted one are
     * stale — the ask of a zombie — and rejected. A fresh epoch re-admits a
     * dead rank as kRejoined (incarnation + 1) and also (re)admits a rank
     * the table has never seen.
     *
     * @return the verdict to send back; the caller attaches the placement.
     */
    JoinAccept OnJoinRequest(std::size_t rank, std::uint32_t epoch,
                             std::uint32_t incarnation);

    /** Ranks a new checkpoint barrier should include. */
    std::vector<std::size_t> LiveRanks() const;

    /** The rank's record, or a default kDead record when unknown. */
    MemberInfo Info(std::size_t rank) const;

    /** Bumped on every state transition. */
    std::uint64_t version() const;

    std::size_t size() const;

    /** The table as a `moc-membership/1` JSON document. */
    std::string ToJson() const;

  private:
    /** Applies a state change + journals it. Caller holds mu_. */
    void Transition(MemberInfo& member, MemberState to,
                    const std::string& cause);

    mutable std::mutex mu_;
    std::map<std::size_t, MemberInfo> members_;
    std::uint64_t version_ = 0;
};

}  // namespace moc::ckpt

#endif  // MOC_CKPT_MEMBERSHIP_H_

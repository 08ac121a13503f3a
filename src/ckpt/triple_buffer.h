#ifndef MOC_CKPT_TRIPLE_BUFFER_H_
#define MOC_CKPT_TRIPLE_BUFFER_H_

/**
 * @file
 * The triple-buffer state machine of Section 5.2 (Fig. 9).
 *
 * Three buffers rotate through snapshot -> persist -> recovery roles:
 *  - a *snapshot* buffer receives the GPU->CPU copy of a new checkpoint;
 *  - once filled, it becomes the *persist* buffer (if no persist is in
 *    flight, else it waits filled);
 *  - once persisted, it becomes the *recovery* buffer — the newest complete
 *    checkpoint recovery may read — releasing the previous recovery buffer
 *    back to snapshot duty.
 *
 * The FSM guarantees data integrity during saving (a buffer being filled or
 * persisted is never exposed for recovery) and consistency during recovery
 * (the recovery buffer is always a fully persisted checkpoint).
 */

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/object_store.h"

namespace moc {

/** One keyed shard of a checkpoint event (the per-shard persist path). */
struct NamedShard {
    /** Store key of the unit, without rank prefix or version suffix. */
    std::string key;
    Blob data;
};

/** Lifecycle states of one buffer. */
enum class BufferState {
    kFree,       ///< snapshot status, empty, acquirable
    kFilling,    ///< snapshot in progress
    kFilled,     ///< snapshot complete, waiting for the persist slot
    kPersisting, ///< persist in progress
    kRecovery,   ///< holds the latest persisted checkpoint
};

/**
 * Thread-safe triple buffer. One producer (the snapshot path) and one
 * consumer (the persist path) coordinate through it.
 */
class TripleBuffer {
  public:
    static constexpr std::size_t kNumBuffers = 3;

    /** Payload of one buffer. */
    struct Slot {
        /** Single-blob payload (the agent's latest-wins blob sink). */
        Blob data;
        /** Keyed shards (per-shard persist path); empty in blob mode. */
        std::vector<NamedShard> shards;
        std::size_t iteration = 0;
        /** Checkpoint-event identity, carried across the snapshot->persist
            thread hop for the flight recorder (obs/critical_path.h). */
        obs::TraceContext ctx;
    };

    TripleBuffer();

    /**
     * Blocks until a free buffer exists, marks it kFilling and returns its
     * index. The caller fills Payload(idx) and then calls CompleteSnapshot.
     */
    std::size_t AcquireForSnapshot();

    /** Non-blocking variant; nullopt when no buffer is free. */
    std::optional<std::size_t> TryAcquireForSnapshot();

    /** Marks @p idx filled; it becomes eligible for persisting. */
    void CompleteSnapshot(std::size_t idx);

    /**
     * Blocks until a filled buffer exists and no persist is in flight;
     * marks it kPersisting and returns its index. Returns nullopt after
     * Shutdown() once nothing remains to persist.
     */
    std::optional<std::size_t> AcquireForPersist();

    /**
     * Marks @p idx persisted: it becomes the recovery buffer, and the
     * previous recovery buffer (if any) returns to kFree.
     */
    void CompletePersist(std::size_t idx);

    /** Index of the current recovery buffer, if one exists. */
    std::optional<std::size_t> RecoveryBuffer() const;

    /** Mutable access to a slot's payload (valid while held by the caller). */
    Slot& Payload(std::size_t idx);

    BufferState state(std::size_t idx) const;

    /** Wakes blocked waiters; AcquireForPersist drains then returns nullopt. */
    void Shutdown();

    /** Blocks until every filled/persisting buffer has completed persist. */
    void WaitPersistDrained();

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    BufferState states_[kNumBuffers];
    Slot slots_[kNumBuffers];
    bool shutdown_ = false;
};

}  // namespace moc

#endif  // MOC_CKPT_TRIPLE_BUFFER_H_

#ifndef MOC_STORAGE_RESILIENT_STORE_H_
#define MOC_STORAGE_RESILIENT_STORE_H_

/**
 * @file
 * Resilient checkpoint I/O: an ObjectStore wrapper that turns a flaky
 * backend into one with typed, bounded failure behaviour
 * (docs/FAULT_MODEL.md).
 *
 *   - every operation retries transient backend errors under bounded
 *     exponential backoff with seeded jitter, up to a per-op deadline;
 *   - writes are read back and CRC-verified (verify_after_write), so torn,
 *     bit-flipped, and lost writes surface at save time, not recovery time.
 *     Each attempt traces a `store.put` span in the caller's phase and a
 *     `store.verify` span in phase "verify", the split the critical-path
 *     profiler reads;
 *   - GetChecked verifies reads against the CRC the manifest recorded at
 *     write time and can read-repair from a caller-supplied replica source
 *     (e.g. surviving DP/EP memory copies).
 *
 * Exhausted retries raise StoreError{kTimeout}; unrepairable damage raises
 * StoreError{kCorrupt}. The wrapper never returns partially-validated
 * bytes.
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "storage/object_store.h"
#include "storage/store_error.h"
#include "util/clock.h"
#include "util/rng.h"

namespace moc {

/** Retry/backoff/deadline knobs for one ResilientStore. */
struct RetryPolicy {
    /** Attempts per operation (>= 1). */
    std::size_t max_attempts = 4;
    /** Backoff before the 2nd attempt; doubles (backoff_multiplier) after. */
    Seconds initial_backoff_s = 1e-4;
    double backoff_multiplier = 2.0;
    Seconds max_backoff_s = 0.1;
    /** Uniform +/- fraction applied to each backoff (0 = none). */
    double jitter = 0.25;
    /** Wall-clock budget per operation, retries included (0 = unlimited). */
    Seconds op_deadline_s = 0.0;
    /** Seed of the jitter stream. */
    std::uint64_t seed = 0x5EEDULL;
    /** Read every Put back and CRC-verify it before reporting success. */
    bool verify_after_write = true;
};

/**
 * Retry/verify wrapper over any ObjectStore. Thread-safe.
 */
class ResilientStore final : public ObjectStore {
  public:
    /**
     * A replica source for read-repair: returns candidate bytes for a key
     * (e.g. from a surviving memory snapshot), or nullopt.
     * GetChecked CRC-verifies the candidate before trusting it.
     */
    using RepairSource =
        std::function<std::optional<Blob>(const std::string& key)>;

    explicit ResilientStore(ObjectStore& base, const RetryPolicy& policy = {},
                            RepairSource repair = nullptr);

    /**
     * Stores @p blob under @p key, retrying transient errors and (when
     * verify_after_write) confirming the stored bytes by CRC read-back.
     * @throws StoreError kTimeout when the retry budget is exhausted.
     */
    void Put(const std::string& key, Blob blob) override;

    /** Put of a blob whose CRC-32C the caller already holds as @p crc. */
    void Put(const std::string& key, Blob blob, std::uint32_t crc);

    /** Get with transient-error retries. No CRC expectation is checked. */
    std::optional<Blob> Get(const std::string& key) const override;

    /**
     * Get verified against @p expected_crc (the manifest's record of what
     * was written). On mismatch, consults the repair source; a CRC-matching
     * replica is written back to the backend (read repair) and returned.
     * @throws StoreError kCorrupt when no intact copy can be produced,
     *         kTimeout when transient retries run out.
     */
    std::optional<Blob> GetChecked(const std::string& key,
                                   std::uint32_t expected_crc) const;

    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override;
    Bytes TotalBytes() const override;
    std::size_t Count() const override;

    const RetryPolicy& policy() const { return policy_; }

  private:
    /** Sleeps the backoff for @p attempt (0-based) with seeded jitter. */
    void Backoff(std::size_t attempt) const;

    /** Seconds since an arbitrary epoch, for deadlines. */
    static Seconds Now();

    /** Throws kTimeout if the deadline from @p start has passed. */
    void CheckDeadline(Seconds start, const std::string& key,
                       const char* op) const;

    ObjectStore& base_;
    RetryPolicy policy_;
    RepairSource repair_;
    mutable std::mutex rng_mu_;
    mutable Rng rng_;
};

}  // namespace moc

#endif  // MOC_STORAGE_RESILIENT_STORE_H_

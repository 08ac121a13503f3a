/**
 * @file
 * Unit tests for the ResilientStore wrapper: transient-error retries,
 * write verification, typed timeout on budget exhaustion, CRC-checked
 * reads, and read-repair from a replica source.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/resilient_store.h"
#include "storage/store_error.h"
#include "util/crc32.h"

namespace moc {
namespace {

Blob
Pattern(std::size_t size) {
    Blob blob(size);
    for (std::size_t i = 0; i < size; ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 31 + 5);
    }
    return blob;
}

std::uint32_t
CrcOf(const Blob& blob) {
    return Crc32c(blob.data(), blob.size());
}

/** Fast retries so fault-heavy tests stay quick. */
RetryPolicy
FastPolicy(std::size_t attempts = 6) {
    RetryPolicy policy;
    policy.max_attempts = attempts;
    policy.initial_backoff_s = 1e-6;
    policy.max_backoff_s = 1e-5;
    return policy;
}

TEST(ResilientStore, PassThroughOnHealthyBackend) {
    MemoryStore base;
    ResilientStore store(base, FastPolicy());
    store.Put("k", Pattern(64));
    EXPECT_EQ(*store.Get("k"), Pattern(64));
    EXPECT_EQ(*store.GetChecked("k", CrcOf(Pattern(64))), Pattern(64));
    EXPECT_FALSE(store.Get("missing").has_value());
    EXPECT_FALSE(store.GetChecked("missing", 123).has_value());
}

TEST(ResilientStore, PutRetriesTransientErrors) {
    MemoryStore base;
    FaultyStore flaky(base, /*seed=*/11);
    StorageFaultProfile profile;
    profile.put_transient_error = 0.5;
    flaky.Arm(profile);
    ResilientStore store(flaky, FastPolicy(/*attempts=*/16));
    for (int i = 0; i < 32; ++i) {
        store.Put(std::string("k") + std::to_string(i), Pattern(48));
    }
    flaky.Disarm();
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(*base.Get(std::string("k") + std::to_string(i)), Pattern(48));
    }
    EXPECT_GT(flaky.injected().transient_errors, 0u);
}

TEST(ResilientStore, ExhaustedRetriesAreTypedTimeout) {
    MemoryStore base;
    FaultyStore flaky(base, 12);
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;  // never succeeds
    flaky.Arm(profile);
    ResilientStore store(flaky, FastPolicy(/*attempts=*/3));
    try {
        store.Put("k", Pattern(16));
        FAIL() << "expected timeout after exhausted retries";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kTimeout);
        EXPECT_EQ(e.key(), "k");
    }
}

TEST(ResilientStore, WriteVerificationDefeatsSilentWriteFaults) {
    // Torn, flipped, and lost writes report success to the writer; the
    // CRC read-back turns them into retries that eventually land clean.
    MemoryStore base;
    FaultyStore flaky(base, 13);
    StorageFaultProfile profile;
    profile.torn_write = 0.4;
    profile.bit_flip = 0.2;
    profile.lost_write = 0.2;
    flaky.Arm(profile);
    ResilientStore store(flaky, FastPolicy(/*attempts=*/32));
    for (int i = 0; i < 24; ++i) {
        store.Put(std::string("k") + std::to_string(i), Pattern(96));
    }
    flaky.Disarm();
    for (int i = 0; i < 24; ++i) {
        EXPECT_EQ(*base.Get(std::string("k") + std::to_string(i)), Pattern(96))
            << "silent write fault survived verification on k" << i;
    }
    EXPECT_GT(flaky.injected().Total(), 0u);
}

TEST(ResilientStore, GetCheckedRejectsDamageWithoutRepairSource) {
    MemoryStore base;
    ResilientStore store(base, FastPolicy());
    Blob damaged = Pattern(64);
    damaged[10] ^= 0x40;
    base.Put("k", damaged);
    try {
        store.GetChecked("k", CrcOf(Pattern(64)));
        FAIL() << "expected corrupt error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kCorrupt);
        EXPECT_EQ(e.key(), "k");
    }
}

TEST(ResilientStore, GetCheckedReadRepairsFromReplica) {
    MemoryStore base;
    const Blob good = Pattern(80);
    ResilientStore store(base, FastPolicy(),
                         [&](const std::string& key) -> std::optional<Blob> {
                             return key == "k" ? std::optional<Blob>(good)
                                               : std::nullopt;
                         });
    Blob damaged = good;
    damaged[3] ^= 0x01;
    base.Put("k", damaged);
    EXPECT_EQ(*store.GetChecked("k", CrcOf(good)), good);
    // The repair wrote the intact replica back over the damaged copy.
    EXPECT_EQ(*base.Get("k"), good);
}

TEST(ResilientStore, GetCheckedDistrustsDamagedReplica) {
    // A replica that itself fails the CRC must not be trusted or written.
    MemoryStore base;
    const Blob good = Pattern(40);
    Blob bad_replica = good;
    bad_replica[0] ^= 0xFF;
    ResilientStore store(base, FastPolicy(),
                         [&](const std::string&) -> std::optional<Blob> {
                             return bad_replica;
                         });
    Blob damaged = good;
    damaged[1] ^= 0x10;
    base.Put("k", damaged);
    EXPECT_THROW(store.GetChecked("k", CrcOf(good)), StoreError);
    EXPECT_EQ(*base.Get("k"), damaged);  // no bogus write-back
}

TEST(ResilientStore, DeadlineBoundsRetrying) {
    MemoryStore base;
    FaultyStore flaky(base, 14);
    StorageFaultProfile profile;
    profile.get_transient_error = 1.0;
    flaky.Arm(profile);
    RetryPolicy policy = FastPolicy(/*attempts=*/1000000);
    policy.op_deadline_s = 0.02;
    ResilientStore store(flaky, policy);
    try {
        store.Get("k");
        FAIL() << "expected deadline timeout";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kTimeout);
    }
}

}  // namespace
}  // namespace moc

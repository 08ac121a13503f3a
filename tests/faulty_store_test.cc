/**
 * @file
 * Unit tests for the FaultyStore injector: inert until armed, seeded
 * determinism, every fault class observable, metadata path unfaulted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"

namespace moc {
namespace {

Blob
Pattern(std::size_t size) {
    Blob blob(size);
    for (std::size_t i = 0; i < size; ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    return blob;
}

/** Bits differing between two equal-length blobs. */
std::size_t
BitDiff(const Blob& a, const Blob& b) {
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint8_t x = a[i] ^ b[i];
        while (x != 0) {
            diff += x & 1u;
            x >>= 1u;
        }
    }
    return diff;
}

TEST(FaultyStore, InertUntilArmed) {
    MemoryStore base;
    FaultyStore store(base, /*seed=*/1);
    EXPECT_FALSE(store.armed());
    store.Put("k", Pattern(64));
    EXPECT_EQ(*store.Get("k"), Pattern(64));
    EXPECT_EQ(store.injected().Total(), 0u);
}

TEST(FaultyStore, ArmRejectsBadProbabilities) {
    MemoryStore base;
    FaultyStore store(base, 1);
    StorageFaultProfile profile;
    profile.bit_flip = 1.5;
    EXPECT_THROW(store.Arm(profile), std::invalid_argument);
    profile.bit_flip = 0.5;
    profile.latency_spike_seconds = -1.0;
    EXPECT_THROW(store.Arm(profile), std::invalid_argument);
}

TEST(FaultyStore, TransientWriteThrowsTyped) {
    MemoryStore base;
    FaultyStore store(base, 2);
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    store.Arm(profile);
    try {
        store.Put("k", Pattern(16));
        FAIL() << "expected an injected transient error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kTransient);
        EXPECT_EQ(e.key(), "k");
    }
    EXPECT_FALSE(base.Contains("k"));
    EXPECT_EQ(store.injected().transient_errors, 1u);
}

TEST(FaultyStore, LostWriteReportsSuccessStoresNothing) {
    MemoryStore base;
    FaultyStore store(base, 3);
    StorageFaultProfile profile;
    profile.lost_write = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(16));  // no throw
    EXPECT_FALSE(base.Contains("k"));
    EXPECT_EQ(store.injected().lost_writes, 1u);
}

TEST(FaultyStore, TornWriteTruncates) {
    MemoryStore base;
    FaultyStore store(base, 4);
    StorageFaultProfile profile;
    profile.torn_write = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(128));
    ASSERT_TRUE(base.Contains("k"));
    EXPECT_LT(base.Get("k")->size(), 128u);
    EXPECT_EQ(store.injected().torn_writes, 1u);
}

TEST(FaultyStore, BitFlipDamagesExactlyOneBit) {
    MemoryStore base;
    FaultyStore store(base, 5);
    StorageFaultProfile profile;
    profile.bit_flip = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(128));
    const Blob stored = *base.Get("k");
    ASSERT_EQ(stored.size(), 128u);
    EXPECT_EQ(BitDiff(stored, Pattern(128)), 1u);
    EXPECT_EQ(store.injected().bit_flips, 1u);
}

TEST(FaultyStore, ReadCorruptionLeavesStoreIntact) {
    MemoryStore base;
    FaultyStore store(base, 6);
    store.Put("k", Pattern(64));
    StorageFaultProfile profile;
    profile.read_corrupt = 1.0;
    store.Arm(profile);
    const Blob read = *store.Get("k");
    EXPECT_EQ(BitDiff(read, Pattern(64)), 1u);
    store.Disarm();
    EXPECT_EQ(*store.Get("k"), Pattern(64));  // the bytes at rest are fine
    EXPECT_EQ(store.injected().corrupt_reads, 1u);
}

TEST(FaultyStore, MetadataOpsPassThroughWhileArmed) {
    MemoryStore base;
    FaultyStore store(base, 7);
    store.Put("a/b", Pattern(8));
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    profile.get_transient_error = 1.0;
    store.Arm(profile);
    EXPECT_TRUE(store.Contains("a/b"));
    EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a/b"}));
    EXPECT_EQ(store.Count(), 1u);
    EXPECT_EQ(store.TotalBytes(), 8u);
    store.Erase("a/b");
    EXPECT_FALSE(base.Contains("a/b"));
}

TEST(FaultyStore, SameSeedSameFaultSequence) {
    // The whole fault stream is a pure function of (seed, op sequence).
    const auto run = [](std::uint64_t seed) {
        MemoryStore base;
        FaultyStore store(base, seed);
        StorageFaultProfile profile;
        profile.put_transient_error = 0.3;
        profile.torn_write = 0.3;
        profile.bit_flip = 0.2;
        store.Arm(profile);
        std::string trace;
        for (int i = 0; i < 64; ++i) {
            std::string key = "k";
            key += std::to_string(i);
            try {
                store.Put(key, Pattern(32));
                const auto blob = base.Get(key);
                trace += blob && blob->size() == 32 ? 'o' : 't';
            } catch (const StoreError&) {
                trace += 'x';
            }
        }
        return trace;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));  // astronomically unlikely to collide
}

TEST(FaultyStore, ParallelWritersGetSameFaultsPerKey) {
    // Faults derive from (seed, key, per-key op index), so four threads
    // racing on disjoint keys see identical faults per key in every run,
    // however the scheduler interleaves them.
    const auto run = [](std::uint64_t seed) {
        MemoryStore base;
        FaultyStore store(base, seed);
        StorageFaultProfile profile;
        profile.put_transient_error = 0.2;
        profile.torn_write = 0.2;
        profile.bit_flip = 0.2;
        profile.read_corrupt = 0.2;
        store.Arm(profile);
        constexpr int kThreads = 4;
        constexpr int kKeysPerThread = 16;
        std::vector<std::map<std::string, std::string>> traces(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&store, &traces, t] {
                for (int round = 0; round < 3; ++round) {
                    for (int k = 0; k < kKeysPerThread; ++k) {
                        const std::string key =
                            "gen/" + std::to_string(t) + "/k" + std::to_string(k);
                        std::string& trace = traces[t][key];
                        try {
                            store.Put(key, Pattern(32));
                            const auto blob = store.Get(key);
                            trace += !blob ? 'n'
                                     : *blob == Pattern(32) ? 'o'
                                     : blob->size() == 32 ? 'f'
                                                          : 't';
                        } catch (const StoreError&) {
                            trace += 'x';
                        }
                    }
                }
            });
        }
        for (auto& thread : threads) {
            thread.join();
        }
        std::map<std::string, std::string> merged;
        for (const auto& trace : traces) {
            merged.insert(trace.begin(), trace.end());
        }
        return std::make_pair(merged, store.injected());
    };
    const auto [first, first_counts] = run(7);
    const auto [second, second_counts] = run(7);
    EXPECT_EQ(first, second);
    EXPECT_GT(first_counts.Total(), 0u);
    EXPECT_EQ(first_counts.transient_errors, second_counts.transient_errors);
    EXPECT_EQ(first_counts.torn_writes, second_counts.torn_writes);
    EXPECT_EQ(first_counts.bit_flips, second_counts.bit_flips);
    EXPECT_EQ(first_counts.corrupt_reads, second_counts.corrupt_reads);
    EXPECT_NE(first, run(8).first);  // the seed still matters
}

}  // namespace
}  // namespace moc

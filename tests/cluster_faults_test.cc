/**
 * @file
 * Cluster checkpointing under storage faults: the per-shard commit protocol
 * (versioned keys, generation seal, dedup-by-reference) must never offer a
 * torn generation as a restart target, and `moc_cli fsck` must classify a
 * torn directory as repairable, never clean.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "ckpt/cluster_engine.h"
#include "ckpt/persist_pipeline.h"
#include "cli_lib.h"
#include "core/cluster_recovery.h"
#include "storage/faulty_store.h"
#include "storage/file_store.h"
#include "storage/persistent_store.h"
#include "storage/resilient_store.h"
#include "storage/store_error.h"

namespace moc {
namespace {

/**
 * Deterministic fault scoped to one rank: Put throws for keys containing
 * @p needle while enabled. Models exactly one rank's persist path dying
 * mid-event while every other rank lands its shards (the torn-checkpoint
 * scenario the commit protocol exists for).
 */
class RankFaultStore final : public ObjectStore {
  public:
    RankFaultStore(ObjectStore& base, std::string needle)
        : base_(base), needle_(std::move(needle)) {}

    void set_enabled(bool enabled) { enabled_.store(enabled); }

    void Put(const std::string& key, Blob blob) override {
        if (enabled_.load() && key.find(needle_) != std::string::npos) {
            throw StoreError(StoreErrorKind::kTransient, key,
                             "injected rank fault");
        }
        base_.Put(key, std::move(blob));
    }
    std::optional<Blob> Get(const std::string& key) const override {
        return base_.Get(key);
    }
    bool Contains(const std::string& key) const override {
        return base_.Contains(key);
    }
    void Erase(const std::string& key) override { base_.Erase(key); }
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

  private:
    ObjectStore& base_;
    const std::string needle_;
    std::atomic<bool> enabled_{false};
};

AgentCostModel
FastCost() {
    AgentCostModel cost;
    cost.snapshot_bandwidth = 200e6;
    cost.persist_bandwidth = 200e6;
    cost.time_scale = 1.0;
    return cost;
}

/** @p ranks ranks, each holding @p per_rank expert shards of 256 KiB. */
ShardPlan
ExpertPlan(std::size_t ranks, std::size_t per_rank) {
    ShardPlan plan(ranks);
    for (RankId r = 0; r < ranks; ++r) {
        for (std::size_t i = 0; i < per_rank; ++i) {
            plan.Add(r, {"expert/" + std::to_string(r * per_rank + i) + "/w",
                         256 * kKiB, false});
        }
    }
    return plan;
}

// ---------- PersistPipeline ----------

TEST(PersistPipeline, WritesVersionedKeysAndSealsGeneration) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});

    pipeline.BeginGeneration(1);
    const auto batch = pipeline.MakeBatch();
    pipeline.Submit("a", Blob(100, 0x11), 1, batch);
    pipeline.Submit("b", Blob(200, 0x22), 1, batch);
    batch->Wait();
    const auto stats = pipeline.FinishGeneration();

    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.shards, 2U);
    EXPECT_EQ(stats.shards_written, 2U);
    EXPECT_EQ(stats.failures, 0U);
    EXPECT_EQ(stats.bytes_written, 300U);
    EXPECT_TRUE(store.Contains("a@1"));
    EXPECT_TRUE(store.Contains("b@1"));
    EXPECT_EQ(manifest.LatestEligibleGeneration(), 1U);
}

TEST(PersistPipeline, DedupRecordsUnchangedShardByReference) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});

    const Blob unchanged(100, 0x11);
    pipeline.BeginGeneration(1);
    pipeline.Submit("a", unchanged, 1);
    pipeline.Submit("b", Blob(200, 0x22), 1);
    ASSERT_TRUE(pipeline.FinishGeneration().sealed);

    pipeline.BeginGeneration(2);
    pipeline.Submit("a", unchanged, 2);       // identical -> dedup
    pipeline.Submit("b", Blob(200, 0x33), 2); // changed -> write
    const auto stats = pipeline.FinishGeneration();

    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.shards_written, 1U);
    EXPECT_EQ(stats.shards_deduped, 1U);
    EXPECT_EQ(stats.bytes_deduped, 100U);
    EXPECT_FALSE(store.Contains("a@2"));  // no bytes written for the ref
    EXPECT_TRUE(store.Contains("b@2"));

    // The manifest still records a@2 — resolved to the physical blob at 1.
    const auto chain = manifest.PersistFallbackChain("a", 2);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().iteration, 2U);
    EXPECT_EQ(chain.front().PhysicalIteration(), 1U);

    // A third unchanged event chains the ref back to the original blob.
    pipeline.BeginGeneration(3);
    pipeline.Submit("a", unchanged, 3);
    pipeline.Submit("b", Blob(200, 0x33), 3);
    ASSERT_TRUE(pipeline.FinishGeneration().sealed);
    EXPECT_EQ(manifest.PersistFallbackChain("a", 3).front().PhysicalIteration(),
              1U);
}

TEST(PersistPipeline, UnsealedGenerationNeverBecomesDedupBaseline) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    RankFaultStore store(base, "b@");
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});

    pipeline.BeginGeneration(1);
    pipeline.Submit("a", Blob(100, 0x11), 1);
    pipeline.Submit("b", Blob(200, 0x22), 1);
    ASSERT_TRUE(pipeline.FinishGeneration().sealed);

    // Generation 2 tears: both shards change; "a" lands, "b" fails.
    store.set_enabled(true);
    pipeline.BeginGeneration(2);
    pipeline.Submit("a", Blob(100, 0x77), 2);
    pipeline.Submit("b", Blob(200, 0x55), 2);
    const auto torn = pipeline.FinishGeneration();
    EXPECT_FALSE(torn.sealed);
    EXPECT_EQ(torn.failures, 1U);
    store.set_enabled(false);

    // Generation 3 resubmits generation 2's "a" content: it must be
    // WRITTEN, not deduped — the baseline is still the last *sealed*
    // generation (1), whose "a" differs. "b" reverts to generation 1's
    // content and dedups against it.
    pipeline.BeginGeneration(3);
    pipeline.Submit("a", Blob(100, 0x77), 3);
    pipeline.Submit("b", Blob(200, 0x22), 3);
    const auto stats = pipeline.FinishGeneration();
    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.shards_written, 1U);  // "a" re-persisted
    EXPECT_EQ(stats.shards_deduped, 1U);  // "b" unchanged since gen 1
    EXPECT_EQ(manifest.EligibleGenerations(),
              (std::vector<std::size_t>{3, 1}));
}

TEST(PersistPipeline, VerifyCatchesSilentBitFlip) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    FaultyStore store(base, /*seed=*/7);
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});

    StorageFaultProfile profile;
    profile.bit_flip = 1.0;  // every write silently lands damaged
    store.Arm(profile);
    pipeline.BeginGeneration(1);
    pipeline.Submit("a", Blob(100, 0x11), 1);
    const auto stats = pipeline.FinishGeneration();
    store.Disarm();

    EXPECT_FALSE(stats.sealed);
    EXPECT_EQ(stats.failures, 1U);
    EXPECT_GT(store.injected().bit_flips, 0U);
    // The landed-but-unverified version never enters a fallback chain.
    EXPECT_TRUE(manifest.PersistFallbackChain("a", 1).empty());
    EXPECT_FALSE(manifest.LatestEligibleGeneration().has_value());
}

TEST(PersistPipeline, RejectsOverlappingGenerationsAndStraySubmits) {
    PersistentStore store;
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});
    EXPECT_THROW(pipeline.Submit("a", Blob(1), 1), std::invalid_argument);
    pipeline.BeginGeneration(1);
    EXPECT_THROW(pipeline.BeginGeneration(2), std::invalid_argument);
    EXPECT_THROW(pipeline.Submit("a", Blob(1), 2), std::invalid_argument);
    pipeline.FinishGeneration();
    EXPECT_THROW(pipeline.FinishGeneration(), std::invalid_argument);
}

TEST(PersistPipeline, RejectedSubmitLeavesItsBatchWaitable) {
    PersistentStore store;
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});
    const auto batch = pipeline.MakeBatch();
    EXPECT_THROW(pipeline.Submit("a", Blob(1), 1, batch),
                 std::invalid_argument);
    // A batch that counted the rejected shard blocks Wait() forever: wait
    // on a helper thread, bounded, so that case fails instead of hanging.
    const auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread waiter([batch, done] {
        batch->Wait();
        done->store(true);
    });
    for (int i = 0; i < 500 && !done->load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (done->load()) {
        waiter.join();
    } else {
        ADD_FAILURE() << "ShardBatch::Wait() still blocked after 5 s";
        waiter.detach();  // blocked for good; it owns what it touches
    }
}

TEST(PersistPipeline, FailedWriteIsRecordedUnverified) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    RankFaultStore store(base, "b@");
    store.set_enabled(true);
    CheckpointManifest manifest;
    ResilientStore verified(store);
    PersistPipeline pipeline(verified, manifest, {});

    pipeline.BeginGeneration(1);
    pipeline.Submit("a", Blob(100, 0x11), 1);
    pipeline.Submit("b", Blob(200, 0x22), 1);
    const auto stats = pipeline.FinishGeneration();

    EXPECT_FALSE(stats.sealed);
    EXPECT_EQ(stats.failures, 1U);
    // The failed unit is on record, unverified, so fsck and the fallback
    // chains know the version was attempted and skip it.
    const auto failed = manifest.FindPersistVersion("b", 1);
    ASSERT_TRUE(failed.has_value());
    EXPECT_FALSE(failed->verified);
    EXPECT_EQ(failed->bytes, 200U);
    EXPECT_TRUE(manifest.PersistFallbackChain("b", 1).empty());
    const auto landed = manifest.FindPersistVersion("a", 1);
    ASSERT_TRUE(landed.has_value());
    EXPECT_TRUE(landed->verified);
    EXPECT_FALSE(manifest.LatestEligibleGeneration().has_value());
}

// ---------- ClusterFaults (engine e2e under injected faults) ----------

TEST(ClusterFaults, TransientFaultsLeaveGenerationUnsealed) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    FaultyStore store(base, /*seed=*/42);
    ClusterCheckpointEngine engine(store, 2, FastCost());
    const auto plan = ExpertPlan(2, 2);

    const auto ok = engine.Execute(plan, SyntheticBlobProvider(1), 1);
    ASSERT_TRUE(ok.sealed);

    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    store.Arm(profile);
    const auto torn = engine.Execute(plan, SyntheticBlobProvider(2), 2);
    store.Disarm();

    EXPECT_FALSE(torn.sealed);
    EXPECT_EQ(torn.keys_persisted, 0U);
    EXPECT_EQ(torn.persist_failures, 4U);
    // The torn generation is never offered as a restart target.
    EXPECT_EQ(engine.manifest().LatestEligibleGeneration(), 1U);
    const auto restore = PlanClusterRestore(engine.manifest());
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 1U);
}

TEST(ClusterFaults, SingleRankFaultFallsBackToSealedGeneration) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    RankFaultStore store(base, "rank1/");
    ClusterCheckpointEngine engine(store, 2, FastCost());
    const auto plan = ExpertPlan(2, 2);

    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);

    // Rank 1's persist path dies mid-event; rank 0 lands all its shards.
    store.set_enabled(true);
    const auto torn = engine.Execute(plan, SyntheticBlobProvider(2), 2);
    store.set_enabled(false);
    EXPECT_FALSE(torn.sealed);
    EXPECT_EQ(torn.keys_persisted, 2U);   // rank 0's shards landed...
    EXPECT_EQ(torn.persist_failures, 2U); // ...rank 1's did not
    EXPECT_TRUE(store.Contains(VersionedShardKey("rank0/expert/0/w", 2)));

    // Recovery selects generation 1 and never references an @2 blob, even
    // for the shards that landed: a torn set must not be mixed.
    const auto restore = PlanClusterRestore(engine.manifest());
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 1U);
    for (const auto& shard : restore->shards) {
        EXPECT_EQ(shard.iteration, 1U) << shard.key;
        EXPECT_EQ(shard.physical_key.find("@2"), std::string::npos)
            << shard.physical_key;
    }
    const auto result = ExecuteClusterRestore(engine.manifest(), store, *restore);
    EXPECT_EQ(result.shards_restored, 4U);
    EXPECT_TRUE(result.damaged.empty());
    // The restored bytes are generation 1's content, not the torn event's.
    const auto items = plan.Items(0);
    const Blob expected = SyntheticShardBytes(items.front(), 1);
    EXPECT_EQ(result.blobs.at("rank0/" + items.front().key), expected);
}

TEST(ClusterFaults, FsckClassifiesTornGenerationRepairableNeverClean) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "moc_cluster_fsck";
    fs::remove_all(dir);
    FileStore disk(dir);
    RankFaultStore store(disk, "rank1/");
    {
        ClusterCheckpointEngine engine(store, 2, FastCost());
        const auto plan = ExpertPlan(2, 2);
        ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);

        // A clean directory (one sealed generation) fscks clean.
        std::ostringstream out0;
        std::ostringstream err0;
        EXPECT_EQ(cli::Main({"fsck", dir.string()}, out0, err0), 0)
            << out0.str();

        store.set_enabled(true);
        EXPECT_FALSE(engine.Execute(plan, SyntheticBlobProvider(2), 2).sealed);
        store.set_enabled(false);
    }
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(cli::Main({"fsck", dir.string()}, out, err), 1) << out.str();
    EXPECT_NE(out.str().find("torn generation: 2"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("repairable"), std::string::npos) << out.str();
    EXPECT_EQ(out.str().find("clean:"), std::string::npos) << out.str();
    fs::remove_all(dir);
}

TEST(ClusterFaults, PerShardStatsReportPerCallDeltas) {
    // Regression: ClusterRunStats used to report the agents' lifetime
    // totals, double-counting the first event in the second's stats.
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 2, FastCost());
    const auto plan = ExpertPlan(2, 2);
    const auto first = engine.Execute(plan, SyntheticBlobProvider(1), 1);
    const auto second = engine.Execute(plan, SyntheticBlobProvider(2), 2);
    EXPECT_EQ(first.keys_persisted, 4U);
    EXPECT_EQ(second.keys_persisted, 4U);  // not 8: per-call, not lifetime
    EXPECT_EQ(first.bytes_persisted, second.bytes_persisted);
}

TEST(ClusterFaults, UnchangedEventDedupsEverything) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 2, FastCost());
    const auto plan = ExpertPlan(2, 2);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);
    // Same salt -> bit-identical shards -> every one dedups by reference.
    const auto stats = engine.Execute(plan, SyntheticBlobProvider(1), 2);
    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.keys_persisted, 0U);
    EXPECT_EQ(stats.bytes_persisted, 0U);
    EXPECT_EQ(stats.keys_deduped, 4U);
    EXPECT_GT(stats.bytes_deduped, 0U);
    EXPECT_EQ(engine.manifest().LatestEligibleGeneration(), 2U);
}

TEST(ClusterFaults, SerializationTimedSeparatelyFromSnapshot) {
    // Regression: per_rank_snapshot used to include the CPU-side provider
    // time, inflating the reported GPU->CPU phase.
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 2, FastCost());
    ShardPlan plan(2);
    for (RankId r = 0; r < 2; ++r) {
        plan.Add(r, {"unit/" + std::to_string(r), 64 * kKiB, false});
    }
    const BlobProvider slow = [](const ShardItem& item) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        return SyntheticShardBytes(item, 1);
    };
    const auto stats = engine.Execute(plan, slow, 1);
    for (RankId r = 0; r < 2; ++r) {
        EXPECT_GE(stats.per_rank_serialize[r], 0.035) << "rank " << r;
        EXPECT_LT(stats.per_rank_snapshot[r], stats.per_rank_serialize[r])
            << "rank " << r;
    }
}

TEST(ClusterFaults, SyntheticBytesAreSeededNotConstant) {
    // Regression: the provider used to fill blobs with one constant byte,
    // which made dedup trivially collide and CRC checks vacuous.
    const ShardItem a{"expert/0/w", 256 * kKiB, false};
    const ShardItem b{"expert/1/w", 256 * kKiB, false};
    const Blob blob_a = SyntheticShardBytes(a, 1);
    EXPECT_EQ(blob_a.size(), 256U);  // 1/1024 size scale
    bool varied = false;
    for (const auto byte : blob_a) {
        if (byte != blob_a.front()) {
            varied = true;
            break;
        }
    }
    EXPECT_TRUE(varied) << "blob is a constant fill";
    EXPECT_EQ(blob_a, SyntheticShardBytes(a, 1));  // deterministic
    EXPECT_NE(blob_a, SyntheticShardBytes(b, 1));  // per-key
    EXPECT_NE(blob_a, SyntheticShardBytes(a, 2));  // per-salt
}

// ---------- ClusterRecovery ----------

TEST(ClusterRecovery, RestoreResolvesDedupReferences) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 2, FastCost());
    const auto plan = ExpertPlan(2, 1);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 2).sealed);

    const auto restore = PlanClusterRestore(engine.manifest());
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 2U);
    for (const auto& shard : restore->shards) {
        EXPECT_EQ(shard.iteration, 2U);
        // Generation 2 deduped everything; blobs physically live at @1.
        EXPECT_NE(shard.physical_key.find("@1"), std::string::npos)
            << shard.physical_key;
    }
    const auto result = ExecuteClusterRestore(engine.manifest(), store, *restore);
    EXPECT_TRUE(result.damaged.empty());
    const auto items = plan.Items(1);
    EXPECT_EQ(result.blobs.at("rank1/" + items.front().key),
              SyntheticShardBytes(items.front(), 1));
}

TEST(ClusterRecovery, DamagedBlobFallsBackDownTheChain) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 1, FastCost());
    const auto plan = ExpertPlan(1, 1);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(2), 2).sealed);

    // Rot generation 2's blob after it sealed.
    const std::string key = "rank0/" + plan.Items(0).front().key;
    store.Put(VersionedShardKey(key, 2), Blob(16, 0xFF));

    const auto restore = PlanClusterRestore(engine.manifest());
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 2U);
    const auto result = ExecuteClusterRestore(engine.manifest(), store, *restore);
    EXPECT_TRUE(result.damaged.empty());
    ASSERT_EQ(result.degraded.size(), 1U);
    EXPECT_EQ(result.degraded.front().key, key);
    EXPECT_EQ(result.degraded.front().restored_iteration, 1U);
    EXPECT_EQ(result.blobs.at(key),
              SyntheticShardBytes(plan.Items(0).front(), 1));
}

TEST(ClusterRecovery, NoSealedGenerationMeansNoRestartTarget) {
    PersistentStore base({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                          .latency = 0.0});
    FaultyStore store(base, /*seed=*/3);
    ClusterCheckpointEngine engine(store, 2, FastCost());
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    store.Arm(profile);
    EXPECT_FALSE(
        engine.Execute(ExpertPlan(2, 2), SyntheticBlobProvider(1), 1).sealed);
    store.Disarm();
    EXPECT_FALSE(PlanClusterRestore(engine.manifest()).has_value());
}

TEST(ClusterRecovery, MaxIterationBoundsTheTarget) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterCheckpointEngine engine(store, 1, FastCost());
    const auto plan = ExpertPlan(1, 1);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(1), 1).sealed);
    ASSERT_TRUE(engine.Execute(plan, SyntheticBlobProvider(2), 2).sealed);
    const auto restore = PlanClusterRestore(engine.manifest(), 1);
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 1U);
}

}  // namespace
}  // namespace moc

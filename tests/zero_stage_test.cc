/**
 * @file
 * Tests for ZeRO-stage generality in the shard planner (Section 4.4) and
 * the concurrent cluster checkpoint engine.
 */

#include <gtest/gtest.h>

#include "ckpt/cluster_engine.h"
#include "core/sharding.h"
#include "dist/presets.h"

namespace moc {
namespace {

struct Fixture {
    ModelSpec spec = Gpt350M16E();
    RankTopology topo;
    ModelStateInventory inv;

    explicit Fixture(const ClusterCase& c = Case3())
        : topo(c.parallel, c.GpusPerNode()), inv(spec, StateBytes{}) {}
};

ShardingOptions
WithZero(ZeroStage stage, bool sharded = false) {
    ShardingOptions opt;
    opt.zero = stage;
    opt.equal_expert = sharded;
    opt.equal_nonexpert = sharded;
    return opt;
}

TEST(ZeroStage, BytesConservedAcrossStages) {
    Fixture f;
    const Bytes expected = f.inv.TotalStateBytes();
    for (ZeroStage stage : {ZeroStage::kNone, ZeroStage::kZero2, ZeroStage::kZero3}) {
        for (bool sharded : {false, true}) {
            ShardingPlanner planner(f.inv, f.topo, WithZero(stage, sharded));
            EXPECT_EQ(planner.PlanFull().TotalBytes(), expected)
                << "stage " << static_cast<int>(stage) << " sharded " << sharded;
        }
    }
}

TEST(ZeroStage, NoZeroBaselinePutsEverythingOnHotRanks) {
    // Without ZeRO, the baseline plan concentrates non-expert weights AND
    // optimizer on rank 0: the worst bottleneck of all configurations.
    Fixture f;
    ShardingPlanner none(f.inv, f.topo, WithZero(ZeroStage::kNone));
    ShardingPlanner zero2(f.inv, f.topo, WithZero(ZeroStage::kZero2));
    const auto none_plan = none.PlanFull();
    const auto zero2_plan = zero2.PlanFull();
    EXPECT_GT(none_plan.BottleneckBytes(), zero2_plan.BottleneckBytes());
    // Some ranks carry nothing at all without ZeRO sharding.
    std::size_t idle = 0;
    for (RankId r = 0; r < f.topo.dp(); ++r) {
        if (none_plan.RankBytes(r) == 0) {
            ++idle;
        }
    }
    EXPECT_GT(idle, 0U);
}

TEST(ZeroStage, NoZeroShardingRecoversBalance) {
    // Section 4.4: without ZeRO, the equal-sharding strategies partition
    // parameters AND optimizer states; the bottleneck approaches total/dp.
    Fixture f;
    ShardingPlanner sharded(f.inv, f.topo, WithZero(ZeroStage::kNone, true));
    const auto plan = sharded.PlanFull();
    const double mean = static_cast<double>(plan.TotalBytes()) /
                        static_cast<double>(f.topo.dp());
    EXPECT_LT(static_cast<double>(plan.BottleneckBytes()), 1.4 * mean);
}

TEST(ZeroStage, Zero3AlwaysFullySharded) {
    // FSDP partitions everything at runtime; even the "baseline" checkpoint
    // is balanced.
    Fixture f;
    ShardingPlanner planner(f.inv, f.topo, WithZero(ZeroStage::kZero3));
    const auto plan = planner.PlanFull();
    const double mean = static_cast<double>(plan.TotalBytes()) /
                        static_cast<double>(f.topo.dp());
    EXPECT_LT(static_cast<double>(plan.BottleneckBytes()), 1.3 * mean);
    // No rank idles.
    for (RankId r = 0; r < f.topo.dp(); ++r) {
        EXPECT_GT(plan.RankBytes(r), 0U) << "rank " << r;
    }
}

TEST(ZeroStage, OrderingNoneWorstZero3Best) {
    Fixture f;
    const Bytes none =
        ShardingPlanner(f.inv, f.topo, WithZero(ZeroStage::kNone)).PlanFull()
            .BottleneckBytes();
    const Bytes zero2 =
        ShardingPlanner(f.inv, f.topo, WithZero(ZeroStage::kZero2)).PlanFull()
            .BottleneckBytes();
    const Bytes zero3 =
        ShardingPlanner(f.inv, f.topo, WithZero(ZeroStage::kZero3)).PlanFull()
            .BottleneckBytes();
    EXPECT_GT(none, zero2);
    EXPECT_GT(zero2, zero3);
}

// ---------- ClusterCheckpointEngine ----------

AgentCostModel
FastCluster() {
    AgentCostModel cost;
    cost.snapshot_bandwidth = 50e6;  // on the synthetic (1/1024) byte scale
    cost.persist_bandwidth = 50e6;
    cost.time_scale = 1.0;
    return cost;
}

TEST(ClusterEngine, ExecutesPlanAndPersistsEveryRankPerShard) {
    StorageIoModel io;
    io.latency = 0.0;
    io.write_bandwidth = 50e6;
    PersistentStore store(io);
    ClusterCheckpointEngine engine(store, 4, FastCluster());

    ShardPlan plan(4);
    for (RankId r = 0; r < 4; ++r) {
        plan.Add(r, {"unit/" + std::to_string(r), 512 * kKiB, false});
    }
    const auto stats = engine.Execute(plan, SyntheticBlobProvider(), 1);
    EXPECT_EQ(stats.keys_persisted, 4U);
    EXPECT_GT(stats.bytes_persisted, 0U);
    EXPECT_GE(stats.total_makespan, stats.snapshot_makespan);
    EXPECT_TRUE(stats.sealed);
    EXPECT_EQ(stats.generation, 1U);
    // Every shard sits under its own versioned key; nothing latest-wins.
    for (RankId r = 0; r < 4; ++r) {
        const std::string key =
            "rank" + std::to_string(r) + "/unit/" + std::to_string(r);
        EXPECT_TRUE(store.Contains(VersionedShardKey(key, 1))) << key;
        EXPECT_FALSE(store.Contains("rank" + std::to_string(r) + "/ckpt"));
    }
    EXPECT_EQ(engine.manifest().LatestEligibleGeneration(), 1U);
    // The manifest JSON itself lands in the store for offline audits.
    EXPECT_TRUE(store.Contains("meta/manifest"));
}

TEST(ClusterEngine, MakespanSetByBottleneckRank) {
    StorageIoModel io;
    io.latency = 0.0;
    io.write_bandwidth = 500e6;
    PersistentStore store(io);
    // Slow snapshot bandwidth so the modeled per-rank sleeps (~160ms for the
    // bottleneck vs ~20ms for the rest) dwarf scheduler noise; sanitizer CI
    // runs this test and sub-millisecond sleeps get reordered by preemption.
    AgentCostModel cost = FastCluster();
    cost.snapshot_bandwidth = 100e3;
    ClusterCheckpointEngine engine(store, 4, cost);

    // Rank 2 carries 8x the payload of the others.
    ShardPlan plan(4);
    for (RankId r = 0; r < 4; ++r) {
        plan.Add(r, {"unit", r == 2 ? Bytes{16} * kMiB : Bytes{2} * kMiB, false});
    }
    const auto stats = engine.Execute(plan, SyntheticBlobProvider(), 1);
    // The cluster snapshot completes no sooner than the slowest rank, and
    // that rank is rank 2.
    const auto slowest = std::max_element(stats.per_rank_snapshot.begin(),
                                          stats.per_rank_snapshot.end());
    EXPECT_EQ(slowest - stats.per_rank_snapshot.begin(), 2);
    EXPECT_GE(stats.snapshot_makespan + 1e-3, *slowest);
    // Concurrency: the makespan is far below the sum of per-rank times.
    double sum = 0.0;
    for (auto t : stats.per_rank_snapshot) {
        sum += t;
    }
    EXPECT_LT(stats.snapshot_makespan, 0.8 * sum);
}

TEST(ClusterEngine, RejectsMismatchedPlan) {
    PersistentStore store;
    ClusterCheckpointEngine engine(store, 2, FastCluster());
    ShardPlan plan(3);
    EXPECT_THROW(engine.Execute(plan, SyntheticBlobProvider(), 1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace moc

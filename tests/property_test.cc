/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over the core invariants:
 *  - sequential selection: coverage, distinctness, balance for all (N, K);
 *  - shard planning: byte conservation and bottleneck ordering across the
 *    topology grid;
 *  - PEC size formula vs planner totals for all K;
 *  - PLT ledger: replay-idempotence under random fault schedules;
 *  - overhead model: optimal-interval optimality across parameter grid.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/overhead.h"
#include "core/pec.h"
#include "core/plt.h"
#include "core/selection.h"
#include "core/sharding.h"
#include "dist/presets.h"
#include "util/rng.h"

namespace moc {
namespace {

// ---------- Sequential selection properties ----------

using NkParam = std::tuple<std::size_t, std::size_t>;  // (N, K)

class SequentialProperty : public ::testing::TestWithParam<NkParam> {};

TEST_P(SequentialProperty, SelectsKDistinctInRange) {
    const auto [n, k] = GetParam();
    SequentialSelector sel(n);
    for (std::size_t c = 0; c < 3 * n; ++c) {
        for (std::size_t m = 0; m < 7; ++m) {
            const auto chosen = sel.Select(c, m, k);
            EXPECT_EQ(chosen.size(), k);
            std::set<ExpertId> unique(chosen.begin(), chosen.end());
            EXPECT_EQ(unique.size(), k);
            for (auto e : chosen) {
                EXPECT_LT(e, n);
            }
        }
    }
}

TEST_P(SequentialProperty, EveryExpertCoveredWithinWindow) {
    const auto [n, k] = GetParam();
    SequentialSelector sel(n);
    const std::size_t window = (n + k - 1) / k + 1;
    for (std::size_t m = 0; m < 5; ++m) {
        std::set<ExpertId> seen;
        for (std::size_t c = 0; c < window; ++c) {
            for (auto e : sel.Select(c, m, k)) {
                seen.insert(e);
            }
        }
        EXPECT_EQ(seen.size(), n) << "N=" << n << " K=" << k << " layer=" << m;
    }
}

TEST_P(SequentialProperty, LongRunSaveCountsBalanced) {
    const auto [n, k] = GetParam();
    SequentialSelector sel(n);
    std::vector<std::size_t> counts(n, 0);
    const std::size_t rounds = 8 * n;
    for (std::size_t c = 0; c < rounds; ++c) {
        for (auto e : sel.Select(c, /*moe_index=*/0, k)) {
            ++counts[e];
        }
    }
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    // Rotation keeps per-expert save counts within a small band.
    EXPECT_LE(*hi - *lo, rounds / n + k);
}

INSTANTIATE_TEST_SUITE_P(
    AllNk, SequentialProperty,
    ::testing::Values(NkParam{2, 1}, NkParam{4, 1}, NkParam{4, 3}, NkParam{8, 1},
                      NkParam{8, 2}, NkParam{8, 3}, NkParam{8, 5}, NkParam{16, 1},
                      NkParam{16, 4}, NkParam{16, 7}, NkParam{16, 16},
                      NkParam{64, 8}, NkParam{64, 13}),
    [](const auto& info) {
        return std::string("N") + std::to_string(std::get<0>(info.param)) +
               "K" + std::to_string(std::get<1>(info.param));
    });

// ---------- Sharding properties across the topology grid ----------

struct TopoCase {
    std::size_t dp;
    std::size_t ep;
    std::size_t gpus_per_node;
};

class ShardingProperty : public ::testing::TestWithParam<TopoCase> {};

TEST_P(ShardingProperty, BytesConservedAndOrdered) {
    const auto p = GetParam();
    const ModelSpec spec = Gpt350M16E();
    const ModelStateInventory inv(spec, StateBytes{});
    const RankTopology topo({.dp = p.dp, .ep = p.ep, .tp = 1, .pp = 1},
                            p.gpus_per_node);
    const Bytes expected = inv.TotalStateBytes();

    ShardingPlanner baseline(inv, topo, ShardingOptions{});
    ShardingPlanner sharded(inv, topo, ShardingOptions{true, true, false});
    ShardingPlanner adaptive(inv, topo, ShardingOptions{true, false, true});

    const auto full_baseline = baseline.PlanFull();
    const auto full_sharded = sharded.PlanFull();
    const auto full_adaptive = adaptive.PlanFull();

    EXPECT_EQ(full_baseline.TotalBytes(), expected);
    EXPECT_EQ(full_sharded.TotalBytes(), expected);
    EXPECT_EQ(full_adaptive.TotalBytes(), expected);

    // Sharded strategies never have a worse bottleneck than the baseline.
    EXPECT_LE(full_sharded.BottleneckBytes(), full_baseline.BottleneckBytes());
    EXPECT_LE(full_adaptive.BottleneckBytes(), full_baseline.BottleneckBytes());

    // Bottleneck is bounded below by the mean load.
    const Bytes mean = expected / p.dp;
    EXPECT_GE(full_sharded.BottleneckBytes(), mean);
}

TEST_P(ShardingProperty, PecTotalsMatchEq6ForAllK) {
    const auto p = GetParam();
    const ModelSpec spec = Gpt350M16E();
    const ModelStateInventory inv(spec, StateBytes{});
    const RankTopology topo({.dp = p.dp, .ep = p.ep, .tp = 1, .pp = 1},
                            p.gpus_per_node);
    ShardingPlanner planner(inv, topo, ShardingOptions{true, true, false});
    SequentialSelector selector(spec.num_experts);
    for (std::size_t k = 1; k <= spec.num_experts; k += 3) {
        std::vector<std::vector<ExpertId>> sel(spec.NumMoeLayers());
        for (std::size_t m = 0; m < sel.size(); ++m) {
            sel[m] = selector.Select(0, m, k);
        }
        EXPECT_EQ(planner.Plan(sel, sel).TotalBytes(),
                  PecCheckpointSize(spec, StateBytes{}, k))
            << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TopologyGrid, ShardingProperty,
    ::testing::Values(TopoCase{8, 8, 8}, TopoCase{16, 16, 8}, TopoCase{16, 8, 8},
                      TopoCase{16, 4, 8}, TopoCase{32, 16, 8}, TopoCase{32, 8, 4},
                      TopoCase{64, 16, 8}),
    [](const auto& info) {
        return "dp" + std::to_string(info.param.dp) + "ep" +
               std::to_string(info.param.ep) + "gpn" +
               std::to_string(info.param.gpus_per_node);
    });

// ---------- PLT ledger properties under random schedules ----------

class PltProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PltProperty, LostNeverExceedsRoutedAndPltInUnitRange) {
    Rng rng(GetParam());
    const std::size_t layers = 1 + rng.UniformInt(4);
    const std::size_t experts = 2 + rng.UniformInt(7);
    PltLedger ledger(layers, experts);

    std::size_t iteration = 0;
    std::size_t faults = 0;
    std::vector<std::size_t> checkpoints{0};

    for (int step = 0; step < 200; ++step) {
        // Route a random amount.
        for (std::size_t m = 0; m < layers; ++m) {
            std::vector<std::size_t> per(experts);
            std::size_t total = 0;
            for (auto& v : per) {
                v = rng.UniformInt(20);
                total += v;
            }
            ledger.RecordRouting(m, per, total);
        }
        ++iteration;
        if (rng.Uniform() < 0.25) {
            ledger.RecordCheckpointEvent(iteration);
            checkpoints.push_back(iteration);
        }
        if (rng.Uniform() < 0.08 && checkpoints.size() > 1) {
            const std::size_t restart = checkpoints.back();
            std::vector<std::vector<std::size_t>> recovered(
                layers, std::vector<std::size_t>(experts, restart));
            // Random subset of experts recovers from an older checkpoint.
            for (std::size_t m = 0; m < layers; ++m) {
                for (std::size_t e = 0; e < experts; ++e) {
                    if (rng.Uniform() < 0.5) {
                        recovered[m][e] =
                            checkpoints[rng.UniformInt(checkpoints.size())];
                    }
                }
            }
            ledger.OnFaultRecovery(restart, recovered);
            ++faults;
            iteration = restart;
            // Checkpoint list must drop entries after the restart.
            while (checkpoints.back() > restart) {
                checkpoints.pop_back();
            }
        }
    }
    const double plt = ledger.Plt();
    EXPECT_GE(plt, 0.0);
    // A single fault can lose at most the unique-token total (PLT <= 1);
    // repeated faults can re-lose replayed tokens, so the bound scales with
    // the fault count.
    EXPECT_LE(plt, static_cast<double>(faults) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PltProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------- Overhead model properties ----------

using OverheadParam = std::tuple<double, double>;  // (o_save, lambda)

class OverheadProperty : public ::testing::TestWithParam<OverheadParam> {};

TEST_P(OverheadProperty, OptimalIntervalBeatsNeighbours) {
    const auto [o_save, lambda] = GetParam();
    FaultToleranceModel m;
    m.i_total = 1e5;
    m.lambda = lambda;
    m.t_iter = 1.0;
    m.o_restart = 120.0;
    const double best = OptimalInterval(m, o_save);
    const double at_best = TotalCheckpointOverhead(m, o_save, best);
    for (double factor : {0.25, 0.5, 0.8, 1.25, 2.0, 4.0}) {
        EXPECT_LE(at_best, TotalCheckpointOverhead(m, o_save, best * factor) + 1e-6)
            << "factor " << factor;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OverheadProperty,
    ::testing::Combine(::testing::Values(0.5, 2.0, 10.0, 60.0),
                       ::testing::Values(1e-5, 1e-4, 1e-3)));

}  // namespace
}  // namespace moc

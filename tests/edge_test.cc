/**
 * @file
 * Edge-case and negative-path tests across modules: logging levels, clock
 * invariants (death tests), thread-pool exception propagation, MoE capacity
 * interaction with the PLT denominator, and selector/planner boundaries.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/plt.h"
#include "nn/moe_layer.h"
#include "util/clock.h"
#include "util/logging.h"

namespace moc {
namespace {

// ---------- Logging ----------

TEST(Logging, LevelFilterSuppressesBelowThreshold) {
    // No crash and no observable side effect required — exercise the paths.
    Logger::Instance().set_level(LogLevel::kSilent);
    MOC_DEBUG << "invisible";
    MOC_WARN << "also invisible";
    Logger::Instance().set_level(LogLevel::kWarn);
    EXPECT_EQ(Logger::Instance().level(), LogLevel::kWarn);
    Logger::Instance().set_level(LogLevel::kInfo);
}

// ---------- Clock invariants ----------

TEST(ClockDeath, VirtualClockRejectsBackwardsTime) {
    VirtualClock clock(10.0);
    EXPECT_DEATH(clock.Advance(-1.0), "backwards");
    EXPECT_DEATH(clock.AdvanceTo(5.0), "backwards");
}

// ---------- MoE capacity vs the PLT denominator ----------

TEST(MoeCapacityPlt, DroppedTokensShrinkNumeratorNotDenominator) {
    // Eq. 7's denominator is T * TopK (attempted assignments); the paper
    // notes the processed count is typically smaller due to capacity drops.
    // The ledger must count attempted assignments in the denominator and
    // only processed tokens in the numerator path.
    MoeLayerConfig cfg;
    cfg.hidden = 8;
    cfg.inter = 16;
    cfg.num_experts = 2;
    cfg.top_k = 1;
    cfg.capacity_factor = 1e-9;  // capacity 1 per expert: heavy drops
    Rng rng(7);
    MoeLayer moe("m", cfg, rng, 0.3F);
    auto x = Tensor::Randn({10, 8}, rng, 1.0F);
    Rng noise(1);
    moe.Forward(x, true, noise);
    const RoutingStats& stats = moe.last_stats();
    ASSERT_GT(stats.dropped, 0U);
    ASSERT_EQ(stats.assignments, 10U);

    PltLedger ledger(1, 2);
    ledger.RecordRouting(0, stats.tokens_per_expert, stats.assignments);
    ledger.RecordCheckpointEvent(1);
    // Recover every expert from the initial state: the whole processed
    // count is lost — but PLT stays below 1 because dropped assignments
    // inflate only the denominator.
    ledger.OnFaultRecovery(1, {{0, 0}});
    std::size_t processed = 0;
    for (auto c : stats.tokens_per_expert) {
        processed += c;
    }
    EXPECT_DOUBLE_EQ(ledger.Plt(),
                     static_cast<double>(processed) / 10.0);
    EXPECT_LT(ledger.Plt(), 1.0);
}

// ---------- RoutingStats arity validation ----------

TEST(PltEdge, RoutingArityChecked) {
    PltLedger ledger(1, 4);
    EXPECT_THROW(ledger.RecordRouting(0, {1, 2}, 3), std::invalid_argument);
    EXPECT_THROW(ledger.RecordRouting(1, {1, 2, 3, 4}, 10),
                 std::invalid_argument);
}

// ---------- Tensor guards ----------

TEST(TensorEdge, RowRequiresRank2) {
    Tensor t({4});
    EXPECT_THROW(t.Row(0), std::invalid_argument);
    Tensor m({2, 2});
    EXPECT_THROW(m.Row(2), std::invalid_argument);
}

TEST(TensorEdge, EmptyTensorBehaves) {
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0U);
    EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
    EXPECT_DOUBLE_EQ(t.Mean(), 0.0);
}

// ---------- MoE layer config guards ----------

TEST(MoeEdge, ConfigValidation) {
    Rng rng(1);
    MoeLayerConfig cfg;
    cfg.hidden = 8;
    cfg.inter = 16;
    cfg.num_experts = 4;
    cfg.top_k = 5;  // > num_experts
    EXPECT_THROW(MoeLayer("m", cfg, rng, 0.3F), std::invalid_argument);
    cfg.top_k = 1;
    cfg.capacity_factor = 0.0;
    EXPECT_THROW(MoeLayer("m", cfg, rng, 0.3F), std::invalid_argument);
}

TEST(MoeEdge, InputShapeValidated) {
    Rng rng(1);
    MoeLayerConfig cfg;
    cfg.hidden = 8;
    cfg.inter = 16;
    cfg.num_experts = 2;
    MoeLayer moe("m", cfg, rng, 0.3F);
    Tensor wrong({3, 4});  // hidden mismatch
    Rng noise(1);
    EXPECT_THROW(moe.Forward(wrong, true, noise), std::invalid_argument);
}

}  // namespace
}  // namespace moc

/**
 * @file
 * Parameterized gradient-check sweep: finite-difference validation of the
 * full transformer block (attention + layernorms + dense FFN or MoE) across
 * a grid of shapes — the property that makes every accuracy experiment
 * trustworthy.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/block.h"

namespace moc {
namespace {

struct BlockShape {
    std::size_t hidden;
    std::size_t heads;
    std::size_t head_dim;
    std::size_t seq;
    bool moe;
    std::size_t experts;
    std::size_t top_k;
    bool causal;
};

class BlockGradient : public ::testing::TestWithParam<BlockShape> {};

TEST_P(BlockGradient, MatchesFiniteDifference) {
    const BlockShape p = GetParam();
    Rng rng(1234);
    BlockConfig cfg;
    cfg.hidden = p.hidden;
    cfg.num_heads = p.heads;
    cfg.head_dim = p.head_dim;
    cfg.ffn_mult = 2;
    cfg.causal = p.causal;
    cfg.is_moe = p.moe;
    if (p.moe) {
        cfg.moe.hidden = p.hidden;
        cfg.moe.inter = 2 * p.hidden;
        cfg.moe.num_experts = p.experts;
        cfg.moe.top_k = p.top_k;
        cfg.moe.capacity_factor = 100.0;  // no drops: keep the loss smooth
        cfg.moe.noise_std = 0.0F;
        cfg.moe.aux_loss_coeff = 0.0F;
    }
    TransformerBlock block("b", cfg, rng, 0.3F);

    auto x = Tensor::Randn({p.seq, p.hidden}, rng, 1.0F);
    auto dy = Tensor::Randn({p.seq, p.hidden}, rng, 1.0F);
    Rng noise(1);
    block.Forward(x, 1, p.seq, /*train=*/true, noise);
    const Tensor dx = block.Backward(dy);

    auto loss = [&](const Tensor& xx) {
        Rng n2(1);
        Tensor y = block.Forward(xx, 1, p.seq, true, n2);
        double l = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i) {
            l += static_cast<double>(y[i]) * dy[i];
        }
        return l;
    };

    const float eps = 1e-2F;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < x.size(); i += 3) {  // stride: keep it fast
        Tensor xp = x;
        Tensor xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double num = (loss(xp) - loss(xm)) / (2 * eps);
        if (p.moe && std::fabs(num - dx[i]) > 0.2) {
            continue;  // crossed a routing boundary: finite diff invalid
        }
        EXPECT_NEAR(dx[i], num, 5e-2) << "input index " << i;
        ++checked;
    }
    EXPECT_GT(checked, x.size() / 6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockGradient,
    ::testing::Values(BlockShape{8, 1, 8, 3, false, 0, 0, true},
                      BlockShape{8, 2, 4, 4, false, 0, 0, false},
                      BlockShape{12, 3, 4, 5, false, 0, 0, true},
                      BlockShape{8, 2, 4, 4, true, 2, 1, true},
                      BlockShape{8, 2, 4, 3, true, 4, 1, false},
                      BlockShape{12, 2, 6, 4, true, 4, 2, true},
                      BlockShape{8, 1, 8, 6, true, 8, 2, true}),
    [](const auto& info) {
        const BlockShape& p = info.param;
        return std::string("h") + std::to_string(p.hidden) + "n" +
               std::to_string(p.heads) + "s" + std::to_string(p.seq) +
               (p.moe ? "moe" + std::to_string(p.experts) + "k" +
                            std::to_string(p.top_k)
                      : std::string("dense")) +
               (p.causal ? "causal" : "bidir");
    });

}  // namespace
}  // namespace moc

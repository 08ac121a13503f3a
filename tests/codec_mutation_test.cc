/**
 * @file
 * Seeded mutation harness for the checkpoint codecs: the SerializeTensor,
 * SerializeParamList and SerializeExtraState encodings are damaged with
 * bit flips, truncations, splices, and boundary values written into their
 * rank, dim and length fields. Every damaged input must parse or throw a
 * typed error (std::runtime_error or std::invalid_argument), and every
 * undamaged encoding must round-trip exactly. The sanitizer build runs the
 * same budget, so an out-of-bounds read, an unchecked allocation or an
 * integer overflow in a parser fails there even when it does not crash.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/moc_system.h"
#include "nn/parameter.h"
#include "tensor/serialize.h"
#include "util/rng.h"

namespace moc {
namespace {

/** Mutated inputs tried per seed encoding. */
constexpr int kMutationsPerSeed = 400;

using Parse = std::function<void(const Blob&)>;

/**
 * Runs @p parse on @p input: parsing and a typed error both pass; any other
 * exception fails the test.
 */
void
ExpectParsesOrThrowsTyped(const Blob& input, const Parse& parse,
                          const std::string& what) {
    try {
        parse(input);
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": untyped " << e.what();
    } catch (...) {
        ADD_FAILURE() << what << ": non-std exception";
    }
}

template <typename T>
void
WriteAt(Blob& blob, std::size_t offset, T value) {
    if (offset + sizeof(T) <= blob.size()) {
        std::memcpy(blob.data() + offset, &value, sizeof(T));
    }
}

/** Values that break naive length arithmetic: 0, 1, near 2^32, 2^62
    (x4 wraps to 0), 2^63, 2^64-1, and sizes around the blob's own. */
std::vector<std::uint64_t>
BoundaryValues(std::size_t blob_size) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    return {0,
            1,
            2,
            0x7FFF'FFFFULL,
            0xFFFF'FFFFULL,
            0x1'0000'0000ULL,
            1ULL << 62,
            (1ULL << 62) + 1,
            1ULL << 63,
            kMax / 4 + 1,
            kMax / 8 + 1,
            kMax - 7,
            kMax,
            blob_size - 1,
            blob_size,
            blob_size + 1};
}

/** Where one codec keeps its u32 and u64 count/length fields. */
struct Fields {
    std::vector<std::size_t> u32;
    std::vector<std::size_t> u64;
};

/** The rank field and dim fields of the tensor encoding at @p at. */
void
AddTensorFields(const Tensor& t, std::size_t at, Fields& fields) {
    fields.u32.push_back(at + 4);  // after the magic
    for (std::size_t i = 0; i < t.rank(); ++i) {
        fields.u64.push_back(at + 8 + 8 * i);
    }
}

/**
 * Damages @p seed kMutationsPerSeed times with a seeded mix of mutations
 * and checks the oracle on each.
 */
void
Mutate(const Blob& seed, const Fields& fields, const Parse& parse,
       std::uint64_t rng_seed) {
    Rng rng(rng_seed);
    const auto values = BoundaryValues(seed.size());
    for (int i = 0; i < kMutationsPerSeed; ++i) {
        Blob input = seed;
        std::string what;
        switch (rng.UniformInt(5)) {
        case 0: {  // 1-4 bit flips anywhere
            const auto flips = 1 + rng.UniformInt(4);
            for (std::uint64_t f = 0; f < flips; ++f) {
                input[rng.UniformInt(input.size())] ^=
                    static_cast<std::uint8_t>(1U << rng.UniformInt(8));
            }
            what = "bit flips";
            break;
        }
        case 1:  // truncation
            input.resize(rng.UniformInt(input.size()));
            what = "truncated to " + std::to_string(input.size());
            break;
        case 2: {  // splice: a prefix, then a chunk from elsewhere
            const auto cut = rng.UniformInt(input.size());
            const auto from = rng.UniformInt(seed.size());
            const auto len = rng.UniformInt(seed.size() - from + 1);
            input.resize(cut);
            input.insert(input.end(), seed.begin() + static_cast<long>(from),
                         seed.begin() + static_cast<long>(from + len));
            what = "splice";
            break;
        }
        case 3:
            if (!fields.u32.empty()) {
                const auto at = fields.u32[rng.UniformInt(fields.u32.size())];
                const auto v = values[rng.UniformInt(values.size())];
                WriteAt(input, at, static_cast<std::uint32_t>(v));
                what = "u32 field @" + std::to_string(at) + " = " +
                       std::to_string(static_cast<std::uint32_t>(v));
                break;
            }
            [[fallthrough]];
        default:
            if (!fields.u64.empty()) {
                const auto at = fields.u64[rng.UniformInt(fields.u64.size())];
                const auto v = values[rng.UniformInt(values.size())];
                WriteAt(input, at, v);
                what = "u64 field @" + std::to_string(at) + " = " +
                       std::to_string(v);
            } else {
                input.push_back(0);  // trailing garbage
                what = "trailing byte";
            }
            break;
        }
        ExpectParsesOrThrowsTyped(input, parse, what);
    }
}

std::vector<Tensor>
SeedTensors() {
    Rng rng(41);
    return {Tensor::Randn({1}, rng, 1.0F), Tensor::Randn({7}, rng, 1.0F),
            Tensor::Randn({3, 5}, rng, 1.0F),
            Tensor::Randn({2, 3, 4}, rng, 1.0F), Tensor(std::vector<std::size_t>{}),
            Tensor({0, 3})};
}

TEST(CodecMutation, TensorEncodingsParseOrThrowTyped) {
    std::uint64_t seed = 1;
    for (const Tensor& t : SeedTensors()) {
        const Blob blob = SerializeTensor(t);
        ASSERT_EQ(blob.size(), SerializedTensorSize(t));
        const Tensor back = DeserializeTensor(blob);
        EXPECT_EQ(back.shape(), t.shape());
        EXPECT_TRUE(back.AllClose(t, 0.0F));
        Fields fields;
        AddTensorFields(t, 0, fields);
        Mutate(blob, fields,
               [](const Blob& b) { DeserializeTensor(b.data(), b.size()); },
               seed++);
    }
}

/** Parameters of mixed rank with distinct values and Adam moments. */
std::vector<Parameter>
SeedParams() {
    Rng rng(43);
    std::vector<Parameter> params;
    params.emplace_back("a", Tensor::Randn({3, 4}, rng, 1.0F));
    params.emplace_back("b", Tensor::Randn({5}, rng, 1.0F));
    params.emplace_back("c", Tensor::Randn({2, 2, 2}, rng, 1.0F));
    for (auto& p : params) {
        p.adam_m() = Tensor::Randn(p.value().shape(), rng, 1.0F);
        p.adam_v() = Tensor::Randn(p.value().shape(), rng, 1.0F);
    }
    return params;
}

std::vector<Parameter*>
Pointers(std::vector<Parameter>& params) {
    std::vector<Parameter*> out;
    for (auto& p : params) {
        out.push_back(&p);
    }
    return out;
}

TEST(CodecMutation, ParamListEncodingsParseOrThrowTyped) {
    auto source = SeedParams();
    std::uint64_t seed = 100;
    for (const bool weights : {true, false}) {
        const Blob blob = SerializeParamList(Pointers(source), weights);

        // Round trip into zeroed parameters of the same shapes.
        std::vector<Parameter> restored;
        for (const auto& p : source) {
            restored.emplace_back(p.name(), Tensor(p.value().shape()));
        }
        DeserializeParamList(blob, Pointers(restored), weights);
        for (std::size_t i = 0; i < source.size(); ++i) {
            if (weights) {
                EXPECT_TRUE(restored[i].value().AllClose(source[i].value(), 0.0F));
            } else {
                EXPECT_TRUE(restored[i].adam_m().AllClose(source[i].adam_m(), 0.0F));
                EXPECT_TRUE(restored[i].adam_v().AllClose(source[i].adam_v(), 0.0F));
            }
        }

        // [u32 count] then per tensor [u64 length][tensor encoding].
        Fields fields;
        fields.u32.push_back(0);
        std::size_t at = sizeof(std::uint32_t);
        for (const auto& p : source) {
            const std::vector<const Tensor*> tensors =
                weights ? std::vector<const Tensor*>{&p.value()}
                        : std::vector<const Tensor*>{&p.adam_m(), &p.adam_v()};
            for (const Tensor* t : tensors) {
                fields.u64.push_back(at);
                AddTensorFields(*t, at + sizeof(std::uint64_t), fields);
                at += sizeof(std::uint64_t) + SerializedTensorSize(*t);
            }
        }
        ASSERT_EQ(at, blob.size());
        Mutate(blob, fields,
               [&restored, weights](const Blob& b) {
                   DeserializeParamList(b, Pointers(restored), weights);
               },
               seed++);
    }
}

TEST(CodecMutation, ExtraStateEncodingsParseOrThrowTyped) {
    Rng gating(7);
    gating.Gaussian();  // leaves a cached sample in the state
    const ExtraState extra{123, 456, gating.GetState()};
    const Blob blob = SerializeExtraState(extra);
    const ExtraState back = DeserializeExtraState(blob);
    EXPECT_EQ(back.iteration, extra.iteration);
    EXPECT_EQ(back.adam_step, extra.adam_step);
    EXPECT_EQ(std::memcmp(back.gating_rng.s, extra.gating_rng.s,
                          sizeof(extra.gating_rng.s)),
              0);
    EXPECT_EQ(back.gating_rng.have_cached_gaussian,
              extra.gating_rng.have_cached_gaussian);
    EXPECT_EQ(back.gating_rng.cached_gaussian, extra.gating_rng.cached_gaussian);
    Fields fields;
    fields.u64 = {0, 8};  // iteration and adam_step
    Mutate(blob, fields, [](const Blob& b) { DeserializeExtraState(b); }, 200);
}

/** Hand-built regressions: lengths whose products wrap, ranks the bytes
    cannot hold, and a list length field near 2^64. */
TEST(CodecMutation, OverflowingLengthFieldsThrowTyped) {
    Rng rng(5);
    const Tensor t = Tensor::Randn({2, 3}, rng, 1.0F);
    const Blob blob = SerializeTensor(t);

    Blob huge_rank = blob;
    WriteAt<std::uint32_t>(huge_rank, 4, 0xFFFF'FFFFU);
    EXPECT_THROW(DeserializeTensor(huge_rank), std::runtime_error);

    // 2^62 * 6 elements wraps to a small byte count in 64-bit arithmetic.
    Blob wrapping = blob;
    WriteAt<std::uint64_t>(wrapping, 8, 1ULL << 62);
    EXPECT_THROW(DeserializeTensor(wrapping), std::runtime_error);

    // (2^63 + 3) * 2 wraps to exactly the payload's 6 elements.
    Blob exact_wrap = blob;
    WriteAt<std::uint64_t>(exact_wrap, 8, (1ULL << 63) + 3);
    WriteAt<std::uint64_t>(exact_wrap, 16, 2);
    EXPECT_THROW(DeserializeTensor(exact_wrap), std::runtime_error);

    Blob zero_dim = blob;
    WriteAt<std::uint64_t>(zero_dim, 8, 0);  // 0 elements, 24 bytes left over
    EXPECT_THROW(DeserializeTensor(zero_dim), std::runtime_error);

    std::vector<Parameter> params;
    params.emplace_back("p", t);
    Blob list = SerializeParamList(Pointers(params), true);
    WriteAt<std::uint64_t>(list, 4, std::numeric_limits<std::uint64_t>::max());
    EXPECT_THROW(DeserializeParamList(list, Pointers(params), true),
                 std::invalid_argument);
    EXPECT_TRUE(params[0].value().AllClose(t, 0.0F));
}

}  // namespace
}  // namespace moc

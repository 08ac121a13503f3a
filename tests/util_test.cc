/**
 * @file
 * Unit tests for the util module: RNG determinism and distributions,
 * statistics accumulators, clocks, thread pool, table rendering, byte
 * formatting, CRC32, and the JSON reader.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <thread>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace moc {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.Next() == b.Next()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversRange) {
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.UniformInt(8);
        EXPECT_LT(v, 8U);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8U);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.Add(rng.Gaussian());
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, GaussianShiftScale) {
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.Add(rng.Gaussian(5.0, 2.0));
    }
    EXPECT_NEAR(stat.mean(), 5.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.Add(rng.Exponential(4.0));
    }
    EXPECT_NEAR(stat.mean(), 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(99);
    Rng b = a.Split();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.Next() == b.Next()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripReproducesStream) {
    Rng rng(17);
    rng.Gaussian();  // populate the cached-gaussian path
    const auto state = rng.GetState();
    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 16; ++i) {
        expected.push_back(rng.Next());
    }
    Rng other(0);
    other.SetState(state);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(other.Next(), expected[static_cast<std::size_t>(i)]);
    }
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.Shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(ZipfTable, SamplesAreSkewed) {
    ZipfTable table(100, 1.2);
    Rng rng(5);
    std::size_t low = 0;
    for (int i = 0; i < 10000; ++i) {
        if (table.Sample(rng) < 10) {
            ++low;
        }
    }
    // Zipf(1.2): the top-10 of 100 items carry well over half the mass.
    EXPECT_GT(low, 5000U);
}

TEST(ZipfTable, RejectsEmpty) {
    EXPECT_THROW(ZipfTable(0, 1.0), std::invalid_argument);
}

// ---------- RunningStat ----------

TEST(RunningStat, BasicMoments) {
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0}) {
        s.Add(x);
    }
    EXPECT_EQ(s.count(), 4U);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeMatchesCombined) {
    RunningStat a;
    RunningStat b;
    RunningStat all;
    Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.Gaussian();
        ((i % 2 != 0) ? a : b).Add(x);
        all.Add(x);
    }
    a.Merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
    RunningStat s;
    EXPECT_EQ(s.count(), 0U);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

// ---------- Histogram ----------

TEST(Histogram, CountsAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.Add(0.5);
    h.Add(9.5);
    h.Add(-5.0);   // clamps to first bin
    h.Add(100.0);  // clamps to last bin
    EXPECT_EQ(h.total(), 4U);
    EXPECT_EQ(h.bin_count(0), 2U);
    EXPECT_EQ(h.bin_count(9), 2U);
}

TEST(Histogram, PercentileMonotone) {
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) {
        h.Add(static_cast<double>(i));
    }
    EXPECT_LE(h.Percentile(10), h.Percentile(50));
    EXPECT_LE(h.Percentile(50), h.Percentile(90));
    EXPECT_NEAR(h.Percentile(50), 50.0, 2.0);
}

TEST(Ewma, ConvergesToConstant) {
    Ewma e(0.5);
    EXPECT_TRUE(e.empty());
    for (int i = 0; i < 50; ++i) {
        e.Add(3.0);
    }
    EXPECT_NEAR(e.value(), 3.0, 1e-9);
}

TEST(Ewma, RejectsBadAlpha) {
    EXPECT_THROW(Ewma(0.0), std::invalid_argument);
    EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

// ---------- Clocks ----------

TEST(VirtualClock, AdvancesExactly) {
    VirtualClock clock;
    EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
    clock.Advance(1.5);
    EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
    clock.AdvanceTo(4.0);
    EXPECT_DOUBLE_EQ(clock.Now(), 4.0);
}

TEST(WallClock, MonotonicAndSleeps) {
    WallClock clock;
    const Seconds t0 = clock.Now();
    clock.Advance(0.01);
    EXPECT_GE(clock.Now() - t0, 0.009);
}

TEST(Stopwatch, MeasuresVirtualTime) {
    VirtualClock clock;
    Stopwatch sw(clock);
    clock.Advance(2.0);
    EXPECT_DOUBLE_EQ(sw.Elapsed(), 2.0);
    sw.Reset();
    EXPECT_DOUBLE_EQ(sw.Elapsed(), 0.0);
}

// ---------- Table ----------

TEST(Table, RendersAlignedRows) {
    Table t({"name", "value"});
    t.AddRow({"alpha", "1"});
    t.AddRow({"b", "22222"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
    EXPECT_EQ(t.rows(), 2U);
}

TEST(Table, RejectsArityMismatch) {
    Table t({"a", "b"});
    EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
    EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::Num(2.0, 0), "2");
}

// ---------- Bytes ----------

TEST(Bytes, FormatPicksUnit) {
    EXPECT_EQ(FormatBytes(512), "512 B");
    EXPECT_NE(FormatBytes(2 * kKiB).find("KiB"), std::string::npos);
    EXPECT_NE(FormatBytes(3 * kMiB).find("MiB"), std::string::npos);
    EXPECT_NE(FormatBytes(5 * kGiB).find("GiB"), std::string::npos);
}

TEST(Bytes, CeilDivRoundsUp) {
    EXPECT_EQ(CeilDiv(10, 3), 4U);
    EXPECT_EQ(CeilDiv(9, 3), 3U);
    EXPECT_EQ(CeilDiv(1, 100), 1U);
}

// ---------- CRC32 ----------

TEST(Crc32, KnownVector) {
    // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
    const char* s = "123456789";
    EXPECT_EQ(Crc32(s, 9), 0xCBF43926U);
}

TEST(Crc32, IncrementalMatchesOneShot) {
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const auto full = Crc32(data.data(), data.size());
    std::uint32_t inc = Crc32Update(0, data.data(), 10);
    inc = Crc32Update(inc, data.data() + 10, data.size() - 10);
    EXPECT_EQ(inc, full);
}

TEST(Crc32, DetectsBitFlip) {
    std::vector<std::uint8_t> data(64, 0xAB);
    const auto before = Crc32(data.data(), data.size());
    data[17] ^= 0x01;
    EXPECT_NE(Crc32(data.data(), data.size()), before);
}

TEST(Crc32c, KnownVector) {
    // CRC-32C("123456789") = 0xE3069283 (Castagnoli check value).
    const char* s = "123456789";
    EXPECT_EQ(Crc32c(s, 9), 0xE3069283U);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const auto full = Crc32c(data.data(), data.size());
    std::uint32_t inc = Crc32cUpdate(0, data.data(), 10);
    inc = Crc32cUpdate(inc, data.data() + 10, data.size() - 10);
    EXPECT_EQ(inc, full);
}

/**
 * Regression: an outer CRC over sections that each embed their own
 * same-polynomial trailer is constant regardless of the payloads —
 * `crc(M || crc(M))` drives the register to a fixed residue. Checkpoint
 * blobs have exactly this shape (per-tensor IEEE trailers), which once
 * let a lost write of a same-shaped stale shard pass verification. The
 * verification checksum must therefore use a different polynomial.
 */
TEST(Crc32c, DifferentPolynomialSeesThroughEmbeddedTrailers) {
    const auto section_with_trailer = [](std::uint8_t fill) {
        std::vector<std::uint8_t> section(40, fill);
        const std::uint32_t crc = Crc32(section.data(), section.size());
        for (int i = 0; i < 4; ++i) {
            section.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
        }
        return section;
    };
    const auto blob_a = section_with_trailer(0x11);
    const auto blob_b = section_with_trailer(0x77);
    ASSERT_NE(blob_a, blob_b);
    // The IEEE outer CRC collides: it never saw the payload.
    EXPECT_EQ(Crc32(blob_a.data(), blob_a.size()),
              Crc32(blob_b.data(), blob_b.size()));
    // The Castagnoli outer CRC distinguishes the payloads.
    EXPECT_NE(Crc32c(blob_a.data(), blob_a.size()),
              Crc32c(blob_b.data(), blob_b.size()));
}

/**
 * The production tables are slice-by-8; this bytewise loop is the
 * textbook reference. Any table-generation or stride bug shows up as a
 * mismatch at some length/offset combination.
 */
std::uint32_t
BytewiseCrc(std::uint32_t poly, std::uint32_t crc, const std::uint8_t* p,
            std::size_t n) {
    crc = ~crc;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int b = 0; b < 8; ++b) {
            crc = (crc >> 1) ^ (poly & (0U - (crc & 1U)));
        }
    }
    return ~crc;
}

TEST(Crc32, SliceBy8MatchesBytewiseReferenceAtEveryLength) {
    Rng rng(7);
    std::vector<std::uint8_t> data(300);
    for (auto& byte : data) {
        byte = static_cast<std::uint8_t>(rng.Next());
    }
    for (std::size_t n = 0; n <= data.size(); n += (n < 24 ? 1 : 7)) {
        EXPECT_EQ(Crc32(data.data(), n),
                  BytewiseCrc(0xEDB88320U, 0, data.data(), n))
            << "IEEE length " << n;
        EXPECT_EQ(Crc32c(data.data(), n),
                  BytewiseCrc(0x82F63B78U, 0, data.data(), n))
            << "Castagnoli length " << n;
    }
    // Unaligned incremental splits exercise the byte head/tail paths
    // around the 8-byte strides.
    for (const std::size_t split : {1U, 3U, 7U, 8U, 9U, 63U, 64U, 65U}) {
        std::uint32_t inc = Crc32cUpdate(0, data.data(), split);
        inc = Crc32cUpdate(inc, data.data() + split, data.size() - split);
        EXPECT_EQ(inc, Crc32c(data.data(), data.size())) << "split " << split;
    }
}

/**
 * Crc32c dispatches at runtime (SSE4.2 `crc32` on x86-64 CPUs that have
 * it); the slice-by-8 fallback must agree with it and with the bytewise
 * reference. Offsets 0-7 put every alignment under the 8-byte strides;
 * lengths run to 64 KiB + 1 through every short length and the stride and
 * page boundaries.
 */
TEST(Crc32c, DispatchedAndSliceBy8MatchBytewiseUpTo64KiB) {
    constexpr std::size_t kMaxLen = 64 * 1024 + 1;
    Rng rng(11);
    std::vector<std::uint8_t> data(kMaxLen + 8);
    for (auto& byte : data) {
        byte = static_cast<std::uint8_t>(rng.Next());
    }
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 72; ++n) {
        lengths.push_back(n);
    }
    for (std::size_t n = 73; n < kMaxLen; n = n * 3 / 2 + 5) {
        lengths.push_back(n);
    }
    for (const std::size_t n : {4095U, 4096U, 4097U, 65535U, 65536U, 65537U}) {
        lengths.push_back(n);
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::uint8_t* p = data.data() + offset;
        for (const std::size_t n : lengths) {
            const std::uint32_t want = BytewiseCrc(0x82F63B78U, 0, p, n);
            EXPECT_EQ(Crc32c(p, n), want) << "offset " << offset << " length " << n;
            EXPECT_EQ(crc32_internal::Crc32cUpdateSliceBy8(0, p, n), want)
                << "offset " << offset << " length " << n;
        }
    }
    // Incremental updates resume from a nonzero register on either path.
    const std::uint32_t head = Crc32cUpdate(0, data.data(), 13);
    const std::uint32_t want = BytewiseCrc(0x82F63B78U, head, data.data() + 13, 1000);
    EXPECT_EQ(Crc32cUpdate(head, data.data() + 13, 1000), want);
    EXPECT_EQ(crc32_internal::Crc32cUpdateSliceBy8(head, data.data() + 13, 1000),
              want);
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2")) {
        EXPECT_TRUE(crc32_internal::Crc32cUsesHardware());
    }
#endif
}

// ---------- xxHash64 ----------

TEST(XxHash64, KnownVectors) {
    // Published XXH64 values, seed 0.
    EXPECT_EQ(XxHash64(nullptr, 0), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(XxHash64("a", 1), 0xD24EC4F1A98C6E5BULL);
    EXPECT_EQ(XxHash64("abc", 3), 0x44BC2CF5AD770999ULL);
    const std::string spam = "Nobody inspects the spammish repetition";
    EXPECT_EQ(XxHash64(spam.data(), spam.size()), 0xFBCEA83C8A378BF1ULL);
    // 47 bytes = one 32-byte stripe + an 8-byte word + a 4-byte word + 3
    // single bytes: every loop and tail branch runs. Value from the xxHash
    // reference implementation.
    const std::string longer = "Nobody inspects the spammish repetition, twice.";
    ASSERT_EQ(longer.size(), 47U);
    EXPECT_EQ(XxHash64(longer.data(), longer.size()), 0x71009F338658D6D9ULL);
}

// ---------- FNV-1a ----------

TEST(Fnv1a64, KnownVectorsAndIncrementalUpdate) {
    // Published FNV-1a 64 check values.
    EXPECT_EQ(Fnv1a64(nullptr, 0), 0xCBF29CE484222325ULL);
    const char* a = "a";
    EXPECT_EQ(Fnv1a64(a, 1), 0xAF63DC4C8601EC8CULL);
    const std::string s = "foobar";
    EXPECT_EQ(Fnv1a64(s.data(), s.size()), 0x85944171F73967E8ULL);
    std::uint64_t inc = Fnv1a64Update(kFnv1a64Offset, s.data(), 3);
    inc = Fnv1a64Update(inc, s.data() + 3, 3);
    EXPECT_EQ(inc, Fnv1a64(s.data(), s.size()));
}

// ---------- JSON reader ----------

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json::Parse("null").is_null());
    EXPECT_EQ(json::Parse("true").AsBool(), true);
    EXPECT_EQ(json::Parse("false").AsBool(), false);
    EXPECT_DOUBLE_EQ(json::Parse("-12.5e2").AsNumber(), -1250.0);
    EXPECT_EQ(json::Parse("\"hi\"").AsString(), "hi");
    EXPECT_EQ(json::Parse("  42 \n").AsNumber(), 42.0);  // outer whitespace
}

TEST(Json, ParsesStringEscapes) {
    EXPECT_EQ(json::Parse("\"a\\\"b\\\\c\\nd\\te\"").AsString(), "a\"b\\c\nd\te");
    // \u escape decodes to UTF-8.
    EXPECT_EQ(json::Parse("\"\\u0041\\u00e9\"").AsString(), "A\xc3\xa9");
}

TEST(Json, ParsesNestedContainers) {
    const json::Value v =
        json::Parse("{\"a\": [1, 2, {\"b\": true}], \"c\": {\"d\": null}}");
    const json::Array& a = v.At("a").AsArray();
    ASSERT_EQ(a.size(), 3U);
    EXPECT_DOUBLE_EQ(a[1].AsNumber(), 2.0);
    EXPECT_TRUE(a[2].At("b").AsBool());
    EXPECT_TRUE(v.At("c").At("d").is_null());
    EXPECT_EQ(v.Find("missing"), nullptr);
    EXPECT_THROW(v.At("missing"), std::invalid_argument);
    EXPECT_DOUBLE_EQ(v.NumberOr("missing", 7.0), 7.0);
    EXPECT_EQ(v.StringOr("missing", "fb"), "fb");
}

TEST(Json, EmptyContainersAndDeepCopy) {
    const json::Value v = json::Parse("{\"a\": [], \"o\": {}}");
    EXPECT_TRUE(v.At("a").AsArray().empty());
    EXPECT_TRUE(v.At("o").AsObject().empty());
    json::Value copy = v;  // deep copy must not alias
    EXPECT_TRUE(copy.At("a").AsArray().empty());
}

TEST(Json, RejectsMalformedDocuments) {
    EXPECT_THROW(json::Parse(""), std::invalid_argument);
    EXPECT_THROW(json::Parse("{"), std::invalid_argument);
    EXPECT_THROW(json::Parse("[1,]"), std::invalid_argument);
    EXPECT_THROW(json::Parse("{\"a\" 1}"), std::invalid_argument);
    EXPECT_THROW(json::Parse("\"unterminated"), std::invalid_argument);
    EXPECT_THROW(json::Parse("nul"), std::invalid_argument);
    EXPECT_THROW(json::Parse("1 2"), std::invalid_argument);  // trailing junk
    EXPECT_THROW(json::Parse("{1: 2}"), std::invalid_argument);
}

TEST(Json, NestingDepthIsCapped) {
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    // The deepest accepted document parses; one level more is a typed
    // parse error, not a stack overflow.
    const json::Value deepest = json::Parse(nested(json::kMaxDepth));
    EXPECT_TRUE(deepest.is_array());
    EXPECT_THROW(json::Parse(nested(json::kMaxDepth + 1)),
                 std::invalid_argument);
    EXPECT_THROW(json::Parse(std::string(100000, '[')), std::invalid_argument);
    std::string objects;
    for (std::size_t i = 0; i <= json::kMaxDepth; ++i) {
        objects += "{\"a\":";
    }
    EXPECT_THROW(json::Parse(objects + "1" +
                             std::string(json::kMaxDepth + 1, '}')),
                 std::invalid_argument);
}

TEST(Json, KindMismatchThrows) {
    const json::Value v = json::Parse("3");
    EXPECT_THROW(v.AsString(), std::invalid_argument);
    EXPECT_THROW(v.AsArray(), std::invalid_argument);
    EXPECT_THROW(v.AsBool(), std::invalid_argument);
    EXPECT_EQ(v.Find("x"), nullptr);  // Find on a non-object is just absent
}

TEST(Json, Integer64BitTokensRoundTripExactly) {
    // (1 << 53) + 1 is the first integer a double cannot represent; the
    // manifest's iterations and byte counters must survive it.
    const std::uint64_t odd = (1ULL << 53) + 1;
    EXPECT_EQ(json::Parse("9007199254740993").AsU64(), odd);
    EXPECT_NE(static_cast<std::uint64_t>(
                  json::Parse("9007199254740993").AsNumber()),
              odd)
        << "double path should round — exactness must come from AsU64";
    EXPECT_EQ(json::Parse("18446744073709551615").AsU64(), ~0ULL);
    EXPECT_EQ(json::Parse("-9007199254740993").AsI64(),
              -static_cast<std::int64_t>(odd));
    EXPECT_EQ(json::Parse("-9223372036854775808").AsI64(),
              std::numeric_limits<std::int64_t>::min());

    const json::Value obj = json::Parse("{\"n\": 9007199254740993}");
    EXPECT_EQ(obj.U64Or("n", 0), odd);
    EXPECT_EQ(obj.U64Or("missing", 5), 5U);
}

TEST(Json, InexactIntegerConversionsThrowTyped) {
    // Negative and overflowing values have no u64/i64 representation.
    EXPECT_THROW(json::Parse("-1").AsU64(), std::invalid_argument);
    EXPECT_THROW(json::Parse("18446744073709551616").AsU64(),
                 std::invalid_argument);
    EXPECT_THROW(json::Parse("9223372036854775808").AsI64(),
                 std::invalid_argument);
    // A fractional or huge float token has no exact integer value either.
    EXPECT_THROW(json::Parse("1.5").AsU64(), std::invalid_argument);
    EXPECT_THROW(json::Parse("1e300").AsU64(), std::invalid_argument);
    // Float *syntax* with an integral value stays usable (9e2 has an exact
    // double representation well inside 2^53).
    EXPECT_EQ(json::Parse("9e2").AsU64(), 900U);
}

/** Writes @p value as a one-value document. */
template <typename T>
std::string
WriteOne(const T& value) {
    json::Writer w;
    w.Put(value);
    return w.Take();
}

TEST(JsonWriter, DoublesRoundTripBitExactly) {
    for (const double x : {0.1 + 0.2, 1234567891.0, 1e-300, 0.5, -2.75,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min()}) {
        const std::string text = WriteOne(x);
        const double back = json::Parse(text).AsNumber();
        EXPECT_EQ(std::memcmp(&back, &x, sizeof(x)), 0) << text;
    }
    // Integral doubles print as integers: byte counts read back exactly.
    EXPECT_EQ(WriteOne(1234567891.0), "1234567891");
    EXPECT_EQ(json::Parse(WriteOne(1234567891.0)).AsU64(), 1234567891U);
    // JSON has no spelling for non-finite values.
    EXPECT_EQ(WriteOne(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(WriteOne(std::nan("")), "null");
    EXPECT_EQ(json::FormatNumber(-std::numeric_limits<double>::infinity()),
              "-Inf");
}

TEST(JsonWriter, IntegersRoundTripExactly) {
    const std::uint64_t u_max = std::numeric_limits<std::uint64_t>::max();
    const std::int64_t i_min = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(WriteOne(u_max), "18446744073709551615");
    EXPECT_EQ(json::Parse(WriteOne(u_max)).AsU64(), u_max);
    EXPECT_EQ(WriteOne(i_min), "-9223372036854775808");
    EXPECT_EQ(json::Parse(WriteOne(i_min)).AsI64(), i_min);
    // A parsed value re-emits its exact integers, not their double image.
    const json::Value parsed =
        json::Parse("[18446744073709551615, -9223372036854775808, 0.25]");
    EXPECT_EQ(WriteOne(parsed),
              "[18446744073709551615, -9223372036854775808, 0.25]");
}

TEST(JsonWriter, EveryAsciiByteRoundTrips) {
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c) {
        all += static_cast<char>(c);
        EXPECT_EQ(json::Parse(WriteOne(std::string(1, static_cast<char>(c))))
                      .AsString(),
                  std::string(1, static_cast<char>(c)))
            << "byte " << c;
    }
    EXPECT_EQ(json::Parse(WriteOne(all)).AsString(), all);
}

TEST(JsonWriter, OneLayoutAndJsonLines) {
    json::Writer w;
    w.BeginObject()
        .Field("name", "a\"b")
        .Field("ok", true)
        .Field("n", -3)
        .Field("list", std::vector<std::size_t>{1, 2, 3})
        .Key("empty")
        .BeginObject()
        .EndObject()
        .Key("none")
        .Null()
        .EndObject()
        .EndLine();
    w.BeginArray().EndArray().EndLine();
    EXPECT_EQ(w.str(),
              "{\"name\": \"a\\\"b\", \"ok\": true, \"n\": -3, "
              "\"list\": [1, 2, 3], \"empty\": {}, \"none\": null}\n[]\n");
    // Re-emitted objects come out with sorted keys.
    EXPECT_EQ(WriteOne(json::Parse("{\"b\": 1, \"a\": {\"d\": [], \"c\": \"x\"}}")),
              "{\"a\": {\"c\": \"x\", \"d\": []}, \"b\": 1}");
}

}  // namespace
}  // namespace moc

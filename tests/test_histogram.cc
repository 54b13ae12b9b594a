/**
 * @file
 * Unit tests for the stats histogram.
 */

#include <gtest/gtest.h>

#include <limits>

#include "stats/hdr_histogram.hh"

namespace limit::stats {
namespace {

// ---------------------------------------------------------------------
// HdrHistogram (the exact, serializable histogram profiles use)
// ---------------------------------------------------------------------

constexpr std::uint64_t maxU64 = std::numeric_limits<std::uint64_t>::max();

TEST(HdrHistogram, ZeroAndMaxU64AreRepresentable)
{
    HdrHistogram h;
    h.add(0);
    h.add(maxU64);
    EXPECT_EQ(h.totalCount(), 2u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), maxU64);
    EXPECT_EQ(h.bucket(h.indexFor(0)), 1u);
    EXPECT_EQ(h.bucket(h.indexFor(maxU64)), 1u);
    // sum wraps (0 + max) but min/max/quantiles stay exact.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(1.0), maxU64);
}

TEST(HdrHistogram, ValuesBelowSubBucketRangeAreExact)
{
    HdrHistogram h(5); // one bucket per value below 2^5
    for (std::uint64_t v = 0; v < 32; ++v) {
        const unsigned idx = h.indexFor(v);
        EXPECT_EQ(h.bucketLo(idx), v);
        EXPECT_EQ(h.bucketHi(idx), v);
    }
}

TEST(HdrHistogram, BucketBoundsConsistentAtPowerOfTwoBoundaries)
{
    HdrHistogram h(5);
    const std::uint64_t probes[] = {
        31,        32,         33,         63,         64,
        65,        1023,       1024,       1025,       (1ull << 32) - 1,
        1ull << 32, (1ull << 32) + 1, (1ull << 63), maxU64 - 1, maxU64};
    for (const std::uint64_t v : probes) {
        const unsigned idx = h.indexFor(v);
        const std::uint64_t lo = h.bucketLo(idx);
        const std::uint64_t hi = h.bucketHi(idx);
        EXPECT_LE(lo, v) << v;
        EXPECT_GE(hi, v) << v;
        EXPECT_EQ(h.indexFor(lo), idx) << v;
        EXPECT_EQ(h.indexFor(hi), idx) << v;
        // Buckets tile the axis: the next bucket starts at hi + 1.
        if (idx + 1 < h.numBuckets() && hi != maxU64) {
            EXPECT_EQ(h.bucketLo(idx + 1), hi + 1) << v;
        }
    }
}

TEST(HdrHistogram, MergeOfDisjointAndOverlappingEqualsSinglePassFill)
{
    HdrHistogram a(5), b(5), whole(5);
    const std::uint64_t disjoint_a[] = {0, 7, 100, 1ull << 20};
    const std::uint64_t disjoint_b[] = {3, 999, 1ull << 40, maxU64};
    const std::uint64_t shared[] = {42, 42, 5000};
    for (const auto v : disjoint_a) {
        a.add(v);
        whole.add(v);
    }
    for (const auto v : disjoint_b) {
        b.add(v);
        whole.add(v);
    }
    for (const auto v : shared) {
        a.add(v, 2);
        b.add(v, 3);
        whole.add(v, 5);
    }
    a.merge(b);
    EXPECT_EQ(a, whole); // bucket-exact, including min/max/sum
    // Merging an empty histogram is a no-op.
    a.merge(HdrHistogram(5));
    EXPECT_EQ(a, whole);

    // Two sums below 2^64 whose total passes it: the merged sum
    // saturates, as the single-pass fill's does.
    HdrHistogram lo(5), hi(5), both(5);
    lo.add(std::uint64_t{1} << 63, 1);
    hi.add(3, std::uint64_t{1} << 62); // 3 * 2^62 < 2^64
    both.add(std::uint64_t{1} << 63, 1);
    both.add(3, std::uint64_t{1} << 62);
    lo.merge(hi);
    EXPECT_EQ(lo, both);
    EXPECT_EQ(lo.totalValue(), maxU64);
}

TEST(HdrHistogramDeathTest, MergeLayoutMismatch)
{
    HdrHistogram a(5), b(6);
    EXPECT_DEATH(a.merge(b), "different layout");
}

TEST(HdrHistogram, PercentileMonotonicityAndRangeClamp)
{
    HdrHistogram h;
    std::uint64_t x = 88172645463325252ull; // xorshift64
    for (int i = 0; i < 10'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.add(x % 1'000'000);
    }
    std::uint64_t prev = 0;
    for (int i = 0; i <= 100; ++i) {
        const std::uint64_t q = h.quantile(i / 100.0);
        EXPECT_GE(q, prev) << "q=" << i;
        EXPECT_GE(q, h.minValue());
        EXPECT_LE(q, h.maxValue());
        prev = q;
    }
}

TEST(HdrHistogram, QuantileExactForSingleValuedBuckets)
{
    HdrHistogram h(5);
    h.add(3, 10);
    h.add(7, 10);
    EXPECT_EQ(h.quantile(0.25), 3u);
    EXPECT_EQ(h.quantile(0.75), 7u);
    EXPECT_EQ(h.quantile(0.5), 3u); // 10th of 20 samples is still a 3
}

// The JSON pins below fix the wire format that profile artifacts
// carry (docs/PROFILING.md): only non-empty buckets, ascending.

TEST(HdrHistogram, JsonRoundTrip)
{
    HdrHistogram h(7);
    h.add(0);
    h.add(1, 12);
    h.add(12345, 3); // 2^13 magnitude: 128 + 6 * 128 + (192 - 128)
    h.add(maxU64);   // top bucket: 128 + 56 * 128 + 127
    // 12 + 3 * 12345 + (2^64 - 1) passes 2^64: the sum saturates.
    EXPECT_EQ(h.toJson(),
              "{\"bucket_bits\":7,\"count\":17,"
              "\"sum\":18446744073709551615,\"min\":0,"
              "\"max\":18446744073709551615,"
              "\"buckets\":[[0,1],[1,12],[960,3],[7423,1]]}");
}

TEST(HdrHistogram, JsonRoundTripEmpty)
{
    EXPECT_EQ(HdrHistogram(5).toJson(),
              "{\"bucket_bits\":5,\"count\":0,\"sum\":0,\"min\":0,"
              "\"max\":0,\"buckets\":[]}");
}

TEST(HdrHistogram, MergeFullyDisjointBucketRanges)
{
    // a's values all land in sub-bucket-exact low buckets, b's in the
    // scaled top decades — no bucket index is shared, so the merge
    // must interleave two runs rather than add overlapping counts.
    HdrHistogram a(5), b(5), whole(5);
    for (std::uint64_t v : {0ull, 1ull, 7ull, 31ull}) {
        a.add(v, 2);
        whole.add(v, 2);
    }
    for (std::uint64_t v :
         {std::uint64_t{1} << 32, std::uint64_t{1} << 48, maxU64}) {
        b.add(v, 3);
        whole.add(v, 3);
    }
    a.merge(b);
    EXPECT_EQ(a, whole);
    EXPECT_EQ(a.minValue(), 0u);
    EXPECT_EQ(a.maxValue(), maxU64);
    EXPECT_EQ(a.totalCount(), 8u + 9u);
    // The low half is untouched by the high-range merge: rank
    // 0.25 * 17 = 4.25 falls past {0, 1} (cumulative 4) into 7.
    EXPECT_EQ(a.quantile(0.25), 7u);
}

TEST(HdrHistogram, MergeIntoEmptyAdoptsOther)
{
    HdrHistogram empty(6), full(6);
    full.add(17, 4);
    full.add(1 << 20);
    empty.merge(full);
    EXPECT_EQ(empty, full);
    EXPECT_EQ(empty.toJson(), full.toJson());
}

TEST(HdrHistogram, JsonRoundTripSingleBucket)
{
    HdrHistogram h(5);
    h.add(42, 7); // one bucket, weighted
    EXPECT_EQ(h.toJson(),
              "{\"bucket_bits\":5,\"count\":7,\"sum\":294,\"min\":42,"
              "\"max\":42,\"buckets\":[[42,7]]}");
    EXPECT_EQ(h.totalCount(), 7u);
    EXPECT_EQ(h.minValue(), 42u);
    EXPECT_EQ(h.maxValue(), 42u);
}

TEST(HdrHistogram, RenderLog2GroupsByMagnitude)
{
    HdrHistogram h;
    h.add(5, 100);
    h.add(6, 20); // same power of two as 5
    h.add(300, 7);
    const std::string r = h.renderLog2(20);
    EXPECT_NE(r.find("[2^2, 2^3)"), std::string::npos);
    EXPECT_NE(r.find("120"), std::string::npos); // 5s and 6s grouped
    EXPECT_NE(r.find("[2^8, 2^9)"), std::string::npos);
    EXPECT_EQ(HdrHistogram().renderLog2(), "(empty histogram)\n");
}

} // namespace
} // namespace limit::stats

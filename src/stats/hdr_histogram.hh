/**
 * @file
 * HdrHistogram: exact log-bucketed histogram for profile attribution.
 *
 * Layout follows the HdrHistogram sub-bucket scheme: values below
 * 2^bucketBits get one bucket each (exact), larger values share
 * 2^bucketBits sub-buckets per power-of-two magnitude, giving a
 * bounded relative error of 2^-bucketBits on bucket boundaries while
 * counts stay simulator-exact. It serializes to JSON and its
 * quantiles are deterministic integers — both required for
 * bit-identical profile output merged across parallel runner jobs.
 */

#ifndef LIMIT_STATS_HDR_HISTOGRAM_HH
#define LIMIT_STATS_HDR_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace limit::stats {

/** Exact log-bucketed histogram over the full uint64 range. */
class HdrHistogram
{
  public:
    /**
     * bucket_bits B gives 2^B sub-buckets per power-of-two magnitude;
     * values below 2^B are recorded exactly. B in [1, 16].
     */
    explicit HdrHistogram(unsigned bucket_bits = 5);

    /** Record one sample. */
    void add(std::uint64_t value) { add(value, 1); }

    /** Record a sample with a weight (pre-aggregated counts). */
    void add(std::uint64_t value, std::uint64_t weight);

    /** Merge another histogram; layouts must match. */
    void merge(const HdrHistogram &other);

    unsigned bucketBits() const { return bucketBits_; }
    unsigned numBuckets() const { return static_cast<unsigned>(counts_.size()); }

    /** Weighted count in bucket idx. */
    std::uint64_t bucket(unsigned idx) const { return counts_.at(idx); }

    /** Bucket index a value lands in. */
    unsigned indexFor(std::uint64_t value) const;

    /** Inclusive lower bound of bucket idx. */
    std::uint64_t bucketLo(unsigned idx) const;

    /** Inclusive upper bound of bucket idx (no overflow at the top). */
    std::uint64_t bucketHi(unsigned idx) const;

    std::uint64_t totalCount() const { return total_; }

    /**
     * Weighted sum of the recorded values. It saturates at 2^64 - 1
     * instead of wrapping, so a sum that passes the uint64 range
     * reads as that ceiling, in toJson's "sum" too.
     */
    std::uint64_t totalValue() const { return sum_; }

    /** Smallest / largest recorded value; 0 when empty. */
    std::uint64_t minValue() const { return total_ ? min_ : 0; }
    std::uint64_t maxValue() const { return total_ ? max_ : 0; }

    /** totalValue() / totalCount(); a saturated sum gives a low bound. */
    double mean() const;

    /**
     * Deterministic integer p-quantile (q in [0,1]): the inclusive
     * upper bound of the bucket holding the q-th weighted sample,
     * clamped to [minValue, maxValue]. Exact (not a bucket bound)
     * whenever the bucket is single-valued.
     */
    std::uint64_t quantile(double q) const;

    /**
     * Serialize to a single-line JSON object:
     *   {"bucket_bits":B,"count":N,"sum":S,"min":m,"max":M,
     *    "buckets":[[idx,count],...]}
     * Only non-empty buckets are listed, in ascending index order, so
     * equal histograms always serialize byte-identically.
     */
    std::string toJson() const;

    /**
     * ASCII bar chart with buckets re-grouped per power of two —
     * the paper-figure rendering E6 prints.
     */
    std::string renderLog2(unsigned width = 50) const;

    bool operator==(const HdrHistogram &other) const = default;

  private:
    unsigned bucketBits_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace limit::stats

#endif // LIMIT_STATS_HDR_HISTOGRAM_HH

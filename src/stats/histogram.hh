/**
 * @file
 * Fixed-layout histogram used throughout the benches: Log2Histogram,
 * one bucket per power of two, the natural choice for critical-section
 * / latency distributions spanning orders of magnitude (paper-style
 * figures).
 */

#ifndef LIMIT_STATS_HISTOGRAM_HH
#define LIMIT_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace limit::stats {

/** Histogram with one bucket per power-of-two magnitude. */
class Log2Histogram
{
  public:
    /** Buckets cover [2^0, 2^maxLog2); larger samples clamp to the top. */
    explicit Log2Histogram(unsigned max_log2 = 48);

    /** Record one sample. */
    void add(std::uint64_t value) { add(value, 1); }

    /** Record a sample with a weight (e.g. pre-aggregated counts). */
    void add(std::uint64_t value, std::uint64_t weight);

    /** Number of buckets (index b covers [2^b, 2^(b+1)), bucket 0 is {0,1}). */
    unsigned numBuckets() const { return static_cast<unsigned>(counts_.size()); }

    /** Weighted count in bucket b. */
    std::uint64_t bucket(unsigned b) const { return counts_.at(b); }

    /** Inclusive lower bound of bucket b. */
    static std::uint64_t bucketLo(unsigned b) { return b == 0 ? 0 : 1ull << b; }

    /** Total weighted samples. */
    std::uint64_t totalCount() const { return total_; }

    /** Sum of recorded values (weighted). */
    std::uint64_t totalValue() const { return sum_; }

    /**
     * Approximate p-quantile (q in [0,1]) assuming samples sit at their
     * bucket's geometric midpoint.
     */
    double quantile(double q) const;

    /**
     * Render an ASCII bar chart, one row per non-empty bucket, at most
     * `width` characters of bar.
     */
    std::string render(unsigned width = 50) const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace limit::stats

#endif // LIMIT_STATS_HISTOGRAM_HH

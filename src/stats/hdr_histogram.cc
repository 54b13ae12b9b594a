#include "stats/hdr_histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "base/logging.hh"

namespace limit::stats {

HdrHistogram::HdrHistogram(unsigned bucket_bits)
    : bucketBits_(bucket_bits)
{
    panic_if(bucket_bits < 1 || bucket_bits > 16, "bad HdrHistogram bucketBits");
    const unsigned sub = 1u << bucket_bits;
    counts_.assign(sub + (64 - bucket_bits) * sub, 0);
}

unsigned
HdrHistogram::indexFor(std::uint64_t value) const
{
    const unsigned sub = 1u << bucketBits_;
    if (value < sub)
        return static_cast<unsigned>(value);
    const unsigned exp = static_cast<unsigned>(std::bit_width(value)) - 1;
    const unsigned shift = exp - bucketBits_;
    const auto mantissa = static_cast<unsigned>(value >> shift); // [sub, 2*sub)
    return sub + shift * sub + (mantissa - sub);
}

std::uint64_t
HdrHistogram::bucketLo(unsigned idx) const
{
    const unsigned sub = 1u << bucketBits_;
    if (idx < sub)
        return idx;
    const unsigned shift = (idx - sub) / sub;
    const unsigned rem = (idx - sub) % sub;
    return static_cast<std::uint64_t>(sub + rem) << shift;
}

std::uint64_t
HdrHistogram::bucketHi(unsigned idx) const
{
    const unsigned sub = 1u << bucketBits_;
    if (idx < sub)
        return idx;
    const unsigned shift = (idx - sub) / sub;
    // lo + width - 1; computed without overflow even for the top bucket.
    return bucketLo(idx) + ((1ull << shift) - 1);
}

void
HdrHistogram::add(std::uint64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    counts_[indexFor(value)] += weight;
    if (total_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    total_ += weight;
    std::uint64_t product = 0;
    if (__builtin_mul_overflow(value, weight, &product) ||
        __builtin_add_overflow(sum_, product, &sum_)) {
        sum_ = std::numeric_limits<std::uint64_t>::max();
    }
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    panic_if(other.bucketBits_ != bucketBits_,
             "merging HdrHistograms of different layout");
    if (other.total_ == 0)
        return;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    if (total_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    total_ += other.total_;
    if (__builtin_add_overflow(sum_, other.sum_, &sum_))
        sum_ = std::numeric_limits<std::uint64_t>::max();
}

double
HdrHistogram::mean() const
{
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
}

std::uint64_t
HdrHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // The q-th weighted sample, 1-based; q=0 maps to the first.
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    target = std::clamp<std::uint64_t>(target, 1, total_);
    std::uint64_t running = 0;
    for (unsigned idx = 0; idx < counts_.size(); ++idx) {
        running += counts_[idx];
        if (running >= target)
            return std::clamp(bucketHi(idx), min_, max_);
    }
    return max_; // unreachable: total_ > 0 implies some bucket is non-empty
}

std::string
HdrHistogram::toJson() const
{
    std::ostringstream os;
    os << "{\"bucket_bits\":" << bucketBits_ << ",\"count\":" << total_
       << ",\"sum\":" << sum_ << ",\"min\":" << minValue()
       << ",\"max\":" << maxValue() << ",\"buckets\":[";
    bool first = true;
    for (unsigned idx = 0; idx < counts_.size(); ++idx) {
        if (!counts_[idx])
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '[' << idx << ',' << counts_[idx] << ']';
    }
    os << "]}";
    return os.str();
}

std::string
HdrHistogram::renderLog2(unsigned width) const
{
    // Re-group sub-buckets per power-of-two magnitude for display.
    std::vector<std::uint64_t> by_exp(64, 0);
    for (unsigned idx = 0; idx < counts_.size(); ++idx) {
        if (!counts_[idx])
            continue;
        const std::uint64_t lo = bucketLo(idx);
        const unsigned exp =
            lo <= 1 ? 0 : static_cast<unsigned>(std::bit_width(lo)) - 1;
        by_exp[exp] += counts_[idx];
    }
    std::uint64_t max_count = 0;
    unsigned first = 64, last = 0;
    for (unsigned e = 0; e < 64; ++e) {
        if (by_exp[e]) {
            max_count = std::max(max_count, by_exp[e]);
            first = std::min(first, e);
            last = std::max(last, e);
        }
    }
    if (max_count == 0)
        return "(empty histogram)\n";

    std::ostringstream os;
    for (unsigned e = first; e <= last; ++e) {
        std::ostringstream label;
        label << "[2^" << e << ", 2^" << e + 1 << ") ";
        std::string l = label.str();
        l.resize(16, ' ');
        os << l;
        const auto bar_len = static_cast<unsigned>(
            std::llround(static_cast<double>(by_exp[e]) * width /
                         static_cast<double>(max_count)));
        os << std::string(bar_len, '#');
        if (by_exp[e] > 0 && bar_len == 0)
            os << '.';
        os << ' ' << by_exp[e] << '\n';
    }
    return os.str();
}

} // namespace limit::stats

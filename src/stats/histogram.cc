#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace limit::stats {

namespace {

/** log2 bucket index for a value; 0 and 1 land in bucket 0. */
unsigned
log2Bucket(std::uint64_t value)
{
    if (value <= 1)
        return 0;
    return static_cast<unsigned>(std::bit_width(value) - 1);
}

std::string
barRow(const std::string &label, std::uint64_t count, std::uint64_t max_count,
       unsigned width)
{
    std::ostringstream os;
    os << label;
    const auto bar_len = max_count == 0
        ? 0u
        : static_cast<unsigned>(
              std::llround(static_cast<double>(count) * width /
                           static_cast<double>(max_count)));
    os << std::string(bar_len, '#');
    if (count > 0 && bar_len == 0)
        os << '.';
    os << ' ' << count << '\n';
    return os.str();
}

} // namespace

Log2Histogram::Log2Histogram(unsigned max_log2)
    : counts_(max_log2, 0)
{
    panic_if(max_log2 == 0 || max_log2 > 64, "bad Log2Histogram size");
}

void
Log2Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    unsigned b = log2Bucket(value);
    if (b >= counts_.size())
        b = static_cast<unsigned>(counts_.size()) - 1;
    counts_[b] += weight;
    total_ += weight;
    sum_ += value * weight;
}

double
Log2Histogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double running = 0.0;
    for (unsigned b = 0; b < counts_.size(); ++b) {
        running += static_cast<double>(counts_[b]);
        if (running >= target) {
            const double lo = static_cast<double>(bucketLo(b));
            const double hi = static_cast<double>(
                b + 1 < counts_.size() ? bucketLo(b + 1) : bucketLo(b) * 2);
            return std::sqrt(std::max(lo, 1.0) * std::max(hi, 1.0));
        }
    }
    return static_cast<double>(bucketLo(numBuckets() - 1));
}

std::string
Log2Histogram::render(unsigned width) const
{
    std::uint64_t max_count = 0;
    unsigned first = counts_.size(), last = 0;
    for (unsigned b = 0; b < counts_.size(); ++b) {
        if (counts_[b]) {
            max_count = std::max(max_count, counts_[b]);
            first = std::min(first, b);
            last = std::max(last, b);
        }
    }
    if (max_count == 0)
        return "(empty histogram)\n";

    std::ostringstream os;
    for (unsigned b = first; b <= last; ++b) {
        std::ostringstream label;
        label << "[2^" << b << ", 2^" << b + 1 << ") ";
        std::string l = label.str();
        l.resize(16, ' ');
        os << barRow(l, counts_[b], max_count, width);
    }
    return os.str();
}

} // namespace limit::stats

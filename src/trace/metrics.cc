#include "trace/metrics.hh"

#include <cstdio>
#include <sstream>

namespace limit::trace {

void
MetricsRegistry::add(std::string_view name, std::uint64_t delta)
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        counters_.emplace(std::string(name), delta);
    else
        it->second += delta;
}

void
MetricsRegistry::set(std::string_view name, double value)
{
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        gauges_.emplace(std::string(name), value);
    else
        it->second = value;
}

std::uint64_t
MetricsRegistry::counter(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(std::string_view name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

bool
MetricsRegistry::hasCounter(std::string_view name) const
{
    return counters_.find(name) != counters_.end();
}

bool
MetricsRegistry::hasGauge(std::string_view name) const
{
    return gauges_.find(name) != gauges_.end();
}

std::string
MetricsRegistry::toJson(unsigned indent) const
{
    // Counters and gauges share one sorted key space; a name used as
    // both would be ambiguous, so gauges lose the tie (counters are
    // the common case and exactly representable).
    const std::string pad(indent, ' ');
    std::ostringstream os;
    os << "{";
    bool first = true;
    auto ci = counters_.begin();
    auto gi = gauges_.begin();
    const auto emitKey = [&](const std::string &key) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad << "  \"" << key << "\": ";
    };
    while (ci != counters_.end() || gi != gauges_.end()) {
        const bool take_counter =
            gi == gauges_.end() ||
            (ci != counters_.end() && ci->first <= gi->first);
        if (take_counter) {
            if (gi != gauges_.end() && gi->first == ci->first)
                ++gi; // counter shadows a same-named gauge
            emitKey(ci->first);
            os << ci->second;
            ++ci;
        } else {
            emitKey(gi->first);
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", gi->second);
            os << buf;
            ++gi;
        }
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
    return os.str();
}

} // namespace limit::trace

#include "pec/region.hh"

#include <algorithm>
#include <tuple>

#include "base/logging.hh"
#include "sim/cpu.hh"
#include "trace/trace.hh"

namespace limit::pec {

RegionProfiler::RegionProfiler(PecSession &session,
                               RegionProfilerConfig config)
    : session_(session), config_(std::move(config))
{
    fatal_if(config_.counters.empty(),
             "RegionProfiler needs at least one counter");
    // Fail at construction, not at the first readDelta deep inside a
    // guest coroutine: destructive reads are hardware enhancement #2
    // and need the PMU feature bit.
    fatal_if(config_.destructiveReads &&
                 !session.kernel()
                      .machine()
                      .cpu(0)
                      .pmu()
                      .features()
                      .destructiveRead,
             "RegionProfilerConfig::destructiveReads requires the "
             "destructiveRead PMU feature");
    for (unsigned c : config_.counters) {
        fatal_if(!session_.eventActive(c),
                 "RegionProfiler counter ", c, " has no active event");
    }
    fatal_if(std::find(config_.counters.begin(), config_.counters.end(),
                       0u) == config_.counters.end(),
             "RegionProfiler counters must include counter 0 (it feeds "
             "the histogram)");
}

sim::Task<std::uint64_t>
RegionProfiler::readCounter(sim::Guest &g, unsigned ctr)
{
    if (config_.destructiveReads) {
        const std::uint64_t v = co_await session_.readDelta(g, ctr);
        co_return v;
    }
    const std::uint64_t v = co_await session_.read(g, ctr);
    co_return v;
}

sim::Task<void>
RegionProfiler::calibrate(sim::Guest &g)
{
    constexpr unsigned reps = 32;
    std::array<std::uint64_t, sim::maxPmuCounters> sums{};

    for (unsigned r = 0; r < reps; ++r) {
        // Snapshot the full counter sequence twice back to back, the
        // same way enter/exit will, so inter-counter skew cancels.
        std::array<std::uint64_t, sim::maxPmuCounters> first{};
        for (unsigned c : config_.counters) {
            const std::uint64_t v = co_await session_.read(g, c);
            first[c] = v;
        }
        for (unsigned c : config_.counters) {
            const std::uint64_t v = co_await session_.read(g, c);
            sums[c] += v - first[c];
        }
    }
    for (unsigned c : config_.counters)
        overhead_[c] = sums[c] / reps;
    calibrated_ = true;
}

sim::Task<void>
RegionProfiler::enter(sim::Guest &g, sim::RegionId region)
{
    PecThreadState &st = session_.threadState(g.context());
    // Keep the sampling profiler's view in sync so the same run can
    // be measured both ways (comparison experiments).
    co_await g.regionEnter(region);

    SegFrame frame;
    frame.region = region;
    frame.enterTick = g.now();
    if (config_.destructiveReads) {
        // Reset-on-read: drain whatever accumulated before the region
        // so exit's readDelta returns the segment count directly.
        for (unsigned c : config_.counters) {
            const std::uint64_t discarded = co_await readCounter(g, c);
            (void)discarded;
        }
    } else {
        for (unsigned c : config_.counters) {
            const std::uint64_t v = co_await readCounter(g, c);
            frame.start[c] = v;
        }
    }
    st.segStack.push_back(frame);
    ++open_[region];
    LIMIT_TRACE(session_.kernel().machine().tracer(),
                g.context().lastCore, trace::TraceEvent::PecRegionEnter,
                g.now(), g.tid(), region);
}

sim::Task<std::uint64_t>
RegionProfiler::exit(sim::Guest &g, sim::RegionId region)
{
    PecThreadState &st = session_.threadState(g.context());
    panic_if(st.segStack.empty(), "RegionProfiler::exit with no open "
                                  "segment in thread '",
             g.name(), "'");
    panic_if(st.segStack.back().region != region,
             "RegionProfiler::exit region mismatch in thread '",
             g.name(), "'");

    std::array<std::uint64_t, sim::maxPmuCounters> deltas{};
    const SegFrame frame = st.segStack.back();
    for (unsigned c : config_.counters) {
        const std::uint64_t v = co_await readCounter(g, c);
        deltas[c] = config_.destructiveReads ? v : v - frame.start[c];
    }
    st.segStack.pop_back();
    co_await g.regionExit();
    auto open_it = open_.find(region);
    panic_if(open_it == open_.end() || open_it->second == 0,
             "RegionProfiler open-count underflow for region ", region);
    if (--open_it->second == 0)
        open_.erase(open_it);
    LIMIT_TRACE(session_.kernel().machine().tracer(),
                g.context().lastCore, trace::TraceEvent::PecRegionExit,
                g.now(), g.tid(), region);

    RegionStats &rs = stats_[region];
    ++rs.entries;
    std::uint64_t hist_delta = 0;
    for (unsigned c : config_.counters) {
        std::uint64_t d = deltas[c];
        if (config_.subtractOverhead && calibrated_)
            d = d > overhead_[c] ? d - overhead_[c] : 0;
        rs.totals[c] += d;
        if (c == 0) {
            rs.histogram.add(d);
            hist_delta = d;
        }
    }
    co_return hist_delta;
}

const RegionStats &
RegionProfiler::stats(sim::RegionId region) const
{
    static const RegionStats empty;
    auto it = stats_.find(region);
    return it == stats_.end() ? empty : it->second;
}

std::vector<sim::RegionId>
RegionProfiler::regions() const
{
    std::vector<sim::RegionId> out;
    out.reserve(stats_.size());
    for (const auto &[r, s] : stats_)
        out.push_back(r);
    return out;
}

std::vector<RegionProfiler::OpenVisit>
RegionProfiler::openRegions() const
{
    // The open visits live on the per-thread segment stacks; walk
    // them rather than the open_ tally so each visit carries its
    // owner and enter time.
    std::vector<OpenVisit> out;
    for (const auto &st : session_.threadStates()) {
        if (!st)
            continue;
        for (const SegFrame &f : st->segStack)
            out.push_back({f.region, st->tid, f.enterTick});
    }
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return std::tie(a.region, a.tid, a.enterTick) <
               std::tie(b.region, b.tid, b.enterTick);
    });
    return out;
}

} // namespace limit::pec

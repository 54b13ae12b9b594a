/**
 * @file
 * Guest-cycle timeline recorder: exact per-interval PMU event deltas.
 *
 * Every event application on a core lands in the slice holding the
 * core's clock at apply time (slice = now / interval). Because both
 * execution modes apply an op's events *before* advancing the clock —
 * and superblock replay sizing additionally refuses to let a span
 * cross the next slice boundary (see Cpu::sbTryEnter) — the slice
 * vectors are bit-identical between per-op and batched execution
 * (declared loops replayed), and across any `--jobs` fan-out (the
 * instrumented run is a dedicated single representative run).
 *
 * Unlike sampling, nothing here is statistical: each slice is the
 * exact sum of the event deltas of the ops that started inside it.
 *
 * Header-only on purpose: `limit_trace` links only `limit_base` (the
 * sim library links trace, not vice versa), so the Perfetto exporter
 * reads recorder data through these inline accessors without adding
 * a circular library dependency.
 */

#ifndef LIMIT_SIM_TIMELINE_HH
#define LIMIT_SIM_TIMELINE_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "sim/types.hh"

namespace limit::sim {

/**
 * One core's accumulation lane. `cur` collects deltas for the slice
 * `curIndex`; Cpu::tlRoll flushes it when the clock crosses the next
 * boundary. Plain struct: the Cpu hot path pokes it directly.
 */
struct TimelineLane
{
    /** Committed slices; index i covers ticks [i*interval, (i+1)*interval). */
    std::vector<EventDeltas> slices;
    /** In-flight accumulator for slice curIndex. */
    EventDeltas cur{};
    /** Slice `cur` belongs to. */
    std::uint64_t curIndex = 0;

    /** Fold `cur` into its slice (growing as needed) and zero it. */
    void
    flush()
    {
        if (curIndex >= slices.size())
            slices.resize(curIndex + 1);
        slices[static_cast<std::size_t>(curIndex)] += cur;
        cur = EventDeltas{};
    }
};

/**
 * Whole-machine timeline: one lane per core plus the slicing
 * interval. Attach via Machine::setTimeline before running, call
 * finalize(machine.maxTime()) after; lanes are then padded to a
 * common, mode-invariant slice count (the slice holding the final
 * machine clock), so trailing idle slices never differ between
 * execution modes.
 */
class TimelineRecorder
{
  public:
    explicit TimelineRecorder(Tick interval_ticks)
        : interval_(interval_ticks)
    {
        fatal_if(interval_ticks == 0,
                 "TimelineRecorder: interval must be > 0");
    }

    Tick interval() const { return interval_; }

    /** Called by Machine::setTimeline; resets any previous capture. */
    void
    attach(unsigned num_cores)
    {
        lanes_.assign(num_cores, TimelineLane{});
        finalized_ = false;
    }

    unsigned
    numLanes() const
    {
        return static_cast<unsigned>(lanes_.size());
    }

    TimelineLane &lane(unsigned core) { return lanes_.at(core); }

    /**
     * Flush every lane and pad all of them to the slice containing
     * `max_time` (the final machine clock — identical across
     * execution modes). Idempotent.
     */
    void
    finalize(Tick max_time)
    {
        if (finalized_)
            return;
        const std::size_t n =
            static_cast<std::size_t>(max_time / interval_) + 1;
        for (auto &lane : lanes_) {
            lane.flush();
            if (lane.slices.size() < n)
                lane.slices.resize(n);
        }
        finalized_ = true;
    }

    bool finalized() const { return finalized_; }

    std::size_t
    numSlices() const
    {
        return lanes_.empty() ? 0 : lanes_.front().slices.size();
    }

    const std::vector<TimelineLane> &lanes() const { return lanes_; }

  private:
    Tick interval_;
    std::vector<TimelineLane> lanes_;
    bool finalized_ = false;
};

} // namespace limit::sim

#endif // LIMIT_SIM_TIMELINE_HH

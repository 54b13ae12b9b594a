/**
 * @file
 * perf_event-style kernel counter subsystem.
 *
 * Models the two access styles the paper compares against:
 *   - counting mode: counters virtualized in the kernel, read through
 *     a heavyweight syscall (sysPerfRead / the lighter sysPapiRead);
 *   - sampling mode: the counter is preloaded so it overflows every
 *     `period` events; the PMI handler records (tick, tid, region)
 *     into a ring buffer, which a profiler aggregates afterwards.
 */

#ifndef LIMIT_OS_PERF_EVENT_HH
#define LIMIT_OS_PERF_EVENT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/pmu.hh"
#include "sim/types.hh"

namespace limit::sim {
class Cpu;
class GuestContext;
} // namespace limit::sim

namespace limit::os {

class Kernel;
class Thread;

/** One PMU-overflow sample. */
struct SampleRecord
{
    sim::Tick tick;
    sim::ThreadId tid;
    sim::RegionId region;
};

/** How a hardware counter is being used by the perf subsystem. */
enum class PerfMode : std::uint8_t { Off, Counting, Sampling };

/** Kernel counter-session manager (one global session, all threads). */
class PerfSubsystem
{
  public:
    explicit PerfSubsystem(Kernel &kernel);

    /** @name Host-side session setup @{ */
    /** Count `event` on counter `ctr` with kernel 64-bit virtualization. */
    void setupCounting(unsigned ctr, sim::EventType event, bool user,
                       bool kernel_mode);
    /** Sample every `period` occurrences of `event` on counter `ctr`. */
    void setupSampling(unsigned ctr, sim::EventType event,
                       std::uint64_t period, bool user, bool kernel_mode);
    /** Release counter `ctr`. */
    void teardown(unsigned ctr);
    /** @} */

    /** @name Syscall backends (invoked by the Kernel) @{ */
    std::uint64_t read(sim::Cpu &cpu, Thread &thread, unsigned ctr);
    std::uint64_t readPapi(sim::Cpu &cpu, Thread &thread, unsigned ctr);
    /** @} */

    /** PMI handler (registered with the Kernel per counter). */
    void onOverflow(sim::Cpu &cpu, sim::GuestContext *ctx, unsigned ctr,
                    std::uint32_t wraps);

    /**
     * Initialize a freshly spawned thread's saved counter state so it
     * inherits sampling preloads (called by Kernel::spawnOn).
     */
    void initThread(Thread &thread) const;

    /**
     * Adjust a counter value as it is saved at context switch: a
     * sampling counter that wrapped (PMI still pending or already
     * handled on-core) must be saved re-armed, otherwise the thread
     * resumes with a near-zero counter and never samples again.
     * Returns `value` unchanged for non-sampling counters.
     */
    std::uint64_t adjustSavedValue(unsigned ctr,
                                   std::uint64_t value) const;

    PerfMode mode(unsigned ctr) const { return modes_.at(ctr); }
    std::uint64_t period(unsigned ctr) const { return periods_.at(ctr); }

    /**
     * Model PMI skid: a sample whose owning event fired within
     * `cycles` before the interrupt is attributed to the region that
     * was current back then — the misattribution real (non-PEBS) PMIs
     * exhibit, which hurts short regions most. 0 (default) disables.
     */
    void setSkid(sim::Tick cycles) { skid_ = cycles; }
    sim::Tick skid() const { return skid_; }

    /** All samples recorded so far (global ring buffer). */
    const std::vector<SampleRecord> &samples() const { return samples_; }
    void clearSamples() { samples_.clear(); }

  private:
    /** Counter preload value that overflows after `period` events. */
    std::uint64_t reloadBase(unsigned ctr) const;
    std::uint64_t readValue(sim::Cpu &cpu, Thread &thread, unsigned ctr);

    Kernel &kernel_;
    std::array<PerfMode, sim::maxPmuCounters> modes_{};
    std::array<std::uint64_t, sim::maxPmuCounters> periods_{};
    std::vector<SampleRecord> samples_;
    sim::Tick skid_ = 0;
};

} // namespace limit::os

#endif // LIMIT_OS_PERF_EVENT_HH

/**
 * @file
 * Kernel-side per-thread state.
 */

#ifndef LIMIT_OS_THREAD_HH
#define LIMIT_OS_THREAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/guest.hh"
#include "sim/pmu.hh"
#include "sim/types.hh"

namespace limit::os {

/** Scheduler-visible thread states. */
enum class ThreadState : std::uint8_t {
    Runnable, ///< on a run queue
    Running,  ///< installed on a core
    Blocked,  ///< waiting on a futex
    Sleeping, ///< waiting for a timed wake (sleep / I/O completion)
    Done,     ///< body completed and reaped
};

/** Human-readable state name. */
constexpr const char *
threadStateName(ThreadState s)
{
    switch (s) {
      case ThreadState::Runnable: return "runnable";
      case ThreadState::Running: return "running";
      case ThreadState::Blocked: return "blocked";
      case ThreadState::Sleeping: return "sleeping";
      case ThreadState::Done: return "done";
      default: return "?";
    }
}

/**
 * A kernel thread: guest context plus scheduling, accounting, and
 * counter-virtualization state.
 */
class Thread
{
  public:
    Thread(sim::Machine &machine, sim::ThreadId tid, std::string name,
           std::uint64_t seed)
        : ctx(machine, tid, std::move(name), seed)
    {
        ctx.osThread = this;
    }

    sim::GuestContext ctx;
    ThreadState state = ThreadState::Runnable;

    /** Preferred core (last ran / spawn placement). */
    sim::CoreId homeCore = 0;
    /** When pinned, the thread only ever runs on homeCore. */
    bool pinned = false;

    /** Timed wake deadline while Sleeping. */
    sim::Tick wakeTick = 0;
    /** Host futex word the thread is blocked on. */
    const std::uint64_t *futexWord = nullptr;
    /** Its simulated address, which trace records carry. */
    sim::Addr futexAddr = 0;
    /** Value delivered as the blocking syscall's result at wake. */
    std::uint64_t wakeValue = 0;

    /** @name Software counter virtualization (see Kernel) @{ */
    /** Saved hardware counter values while descheduled. */
    std::array<std::uint64_t, sim::maxPmuCounters> savedCounters{};
    /** Kernel-side 64-bit overflow accumulation for perf counting. */
    std::array<std::uint64_t, sim::maxPmuCounters> perfAccum{};
    /** @} */

    /** @name Accounting @{ */
    std::uint64_t userJiffies = 0;
    std::uint64_t kernelJiffies = 0;
    /** Kernel cycles observed at the last timer tick (for jiffy
        mode attribution). */
    std::uint64_t kernelCyclesAtTick = 0;
    std::uint64_t voluntarySwitches = 0;
    std::uint64_t involuntarySwitches = 0;
    sim::Tick firstScheduledAt = sim::maxTick;
    sim::Tick exitedAt = 0;
    /** @} */
};

} // namespace limit::os

#endif // LIMIT_OS_THREAD_HH

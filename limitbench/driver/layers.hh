/**
 * @file
 * Outside-in layer tracing for the traced benchmark run.
 *
 * Forwarding wrappers sit on the simulator's public layer boundaries:
 * sim::MemoryIf (in front of mem::CacheHierarchy), sim::KernelIf (in
 * front of os::Kernel) and limit::CounterSource (in front of the
 * baseline/PEC readers). Each counts every call and charges its self
 * time, read from the TSC, to its layer (see TracedMemory for the
 * calls that are only counted). A LayerClock keeps a stack of
 * open calls so a nested call (a kernel entry that touches memory,
 * say) is charged once, to the innermost layer.
 *
 * Every wrapper forwards every virtual function, including the ones a
 * run only calls occasionally (fastPeekView, creditFastAccesses,
 * allThreadsDone, blockedReport), so superblock replay, batching and
 * deadlock reports behave exactly as without the wrappers.
 */

#ifndef LIMITBENCH_LAYERS_HH
#define LIMITBENCH_LAYERS_HH

#include <x86intrin.h>

#include <array>
#include <cstdint>
#include <string>

#include "baseline/counter_source.hh"
#include "base/logging.hh"
#include "sim/kernel_if.hh"
#include "sim/memory_if.hh"

namespace limitbench {

namespace sim = limit::sim;

/** Calls seen at the memory boundary, and the self time (TSC ticks)
 *  of full accesses. */
struct MemCounts
{
    std::uint64_t accessCalls = 0;
    std::uint64_t fastTries = 0;
    std::uint64_t fastHits = 0;
    std::uint64_t replayCredited = 0;
    std::uint64_t ticks = 0;
};

/** Calls and self time (TSC ticks) seen at the kernel boundary. */
struct KernelCounts
{
    std::uint64_t syscalls = 0;
    std::uint64_t polls = 0;
    std::uint64_t timerTicks = 0;
    std::uint64_t pmis = 0;
    std::uint64_t syscallTicks = 0;
    std::uint64_t pollTicks = 0;
    /** Self time of every other kernel entry point. */
    std::uint64_t otherTicks = 0;

    std::uint64_t totalTicks() const
    {
        return syscallTicks + pollTicks + otherTicks;
    }
};

/** Self-time attribution over nested wrapped calls. */
class LayerClock
{
  public:
    static std::uint64_t now() { return __rdtsc(); }

    /** RAII: one wrapped call, charging its self ticks to `self`. */
    class Call
    {
      public:
        Call(LayerClock &clock, std::uint64_t &self)
            : clock_(clock), self_(self)
        {
            panic_if(clock_.depth_ + 1 >= maxDepth,
                     "layer calls nested deeper than ", maxDepth);
            clock_.child_[++clock_.depth_] = 0;
            start_ = now();
        }
        ~Call()
        {
            const std::uint64_t d = now() - start_;
            self_ += d - clock_.child_[clock_.depth_];
            clock_.child_[--clock_.depth_] += d;
        }
        Call(const Call &) = delete;
        Call &operator=(const Call &) = delete;

      private:
        LayerClock &clock_;
        std::uint64_t &self_;
        std::uint64_t start_ = 0;
    };

  private:
    static constexpr unsigned maxDepth = 16;
    /** Ticks spent in wrapped calls nested in each open call. */
    std::array<std::uint64_t, maxDepth> child_{};
    unsigned depth_ = 0;
};

/** sim::MemoryIf forwarding to the real memory model. */
class TracedMemory final : public sim::MemoryIf
{
  public:
    TracedMemory(sim::MemoryIf &inner, LayerClock &clock, MemCounts &counts)
        : inner_(inner), clock_(clock), c_(counts)
    {
    }

    using sim::MemoryIf::access;

    sim::Tick
    access(sim::CoreId core, sim::Addr addr, bool write, bool atomic,
           sim::EventDeltas &deltas) override
    {
        ++c_.accessCalls;
        LayerClock::Call t(clock_, c_.ticks);
        return inner_.access(core, addr, write, atomic, deltas);
    }

    /*
     * The fast path and replay credits take a few ns per call, less
     * than a TSC read on some hosts, so they are counted but not
     * timed: their host time stays in sim.self_s.
     */
    sim::Tick
    tryFastAccess(sim::CoreId core, sim::Addr addr, bool write) override
    {
        ++c_.fastTries;
        const sim::Tick latency = inner_.tryFastAccess(core, addr, write);
        c_.fastHits += latency != 0;
        return latency;
    }

    /** The view points into the real model, so replay validates
     *  against it directly, exactly as without the wrapper. */
    sim::FastPeekView
    fastPeekView(sim::CoreId core) override
    {
        return inner_.fastPeekView(core);
    }

    void
    creditFastAccesses(sim::CoreId core, std::uint64_t n) override
    {
        c_.replayCredited += n;
        inner_.creditFastAccesses(core, n);
    }

  private:
    sim::MemoryIf &inner_;
    LayerClock &clock_;
    MemCounts &c_;
};

/** sim::KernelIf forwarding to the real OS layer. */
class TracedKernel final : public sim::KernelIf
{
  public:
    TracedKernel(sim::KernelIf &inner, LayerClock &clock,
                 KernelCounts &counts)
        : inner_(inner), clock_(clock), c_(counts)
    {
    }

    sim::SyscallOutcome
    syscall(sim::Cpu &cpu, sim::GuestContext &ctx, std::uint32_t nr,
            const std::array<std::uint64_t, 4> &args) override
    {
        ++c_.syscalls;
        LayerClock::Call t(clock_, c_.syscallTicks);
        return inner_.syscall(cpu, ctx, nr, args);
    }

    void
    timerTick(sim::Cpu &cpu) override
    {
        ++c_.timerTicks;
        LayerClock::Call t(clock_, c_.otherTicks);
        inner_.timerTick(cpu);
    }

    void
    pmuOverflow(sim::Cpu &cpu, unsigned counter,
                std::uint32_t wraps) override
    {
        ++c_.pmis;
        LayerClock::Call t(clock_, c_.otherTicks);
        inner_.pmuOverflow(cpu, counter, wraps);
    }

    void
    threadExited(sim::Cpu &cpu, sim::GuestContext &ctx) override
    {
        LayerClock::Call t(clock_, c_.otherTicks);
        inner_.threadExited(cpu, ctx);
    }

    bool
    poll(sim::Tick now) override
    {
        ++c_.polls;
        LayerClock::Call t(clock_, c_.pollTicks);
        return inner_.poll(now);
    }

    bool
    allThreadsDone() const override
    {
        LayerClock::Call t(clock_, c_.otherTicks);
        return inner_.allThreadsDone();
    }

    std::string
    blockedReport() const override
    {
        LayerClock::Call t(clock_, c_.otherTicks);
        return inner_.blockedReport();
    }

  private:
    sim::KernelIf &inner_;
    LayerClock &clock_;
    KernelCounts &c_;
};

/**
 * limit::CounterSource forwarding to a real reader, counting reads.
 * A read is a guest coroutine whose host time is spent inside the
 * simulator's op loop, so it is charged to sim, not timed here.
 */
class CountingSource final : public limit::CounterSource
{
  public:
    CountingSource(limit::CounterSource &inner, std::uint64_t &reads)
        : inner_(inner), reads_(reads)
    {
    }

    sim::Task<std::uint64_t>
    read(sim::Guest &g, unsigned ctr) override
    {
        ++reads_;
        const std::uint64_t v = co_await inner_.read(g, ctr);
        co_return v;
    }

    sim::Task<std::uint64_t>
    readDelta(sim::Guest &g, unsigned ctr) override
    {
        ++reads_;
        const std::uint64_t v = co_await inner_.readDelta(g, ctr);
        co_return v;
    }

    limit::CounterCost cost() const override { return inner_.cost(); }
    std::string name() const override { return inner_.name(); }

  private:
    limit::CounterSource &inner_;
    std::uint64_t &reads_;
};

} // namespace limitbench

#endif // LIMITBENCH_LAYERS_HH

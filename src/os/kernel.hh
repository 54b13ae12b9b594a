/**
 * @file
 * The simulated operating system kernel.
 *
 * Implements the sim::KernelIf entry points: syscall dispatch, the
 * scheduler (round-robin with work stealing), futexes, timed sleeps,
 * PMU counter virtualization across context switches (the kernel
 * mechanism the paper's LiMiT patch adds to Linux), and PMI dispatch
 * to per-counter handlers (perf sampling, PEC overflow fix-up).
 */

#ifndef LIMIT_OS_KERNEL_HH
#define LIMIT_OS_KERNEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/perf_event.hh"
#include "os/scheduler.hh"
#include "os/thread.hh"
#include "sim/kernel_if.hh"
#include "sim/machine.hh"

namespace limit::os {

/** Kernel-wide policy switches. */
struct KernelConfig
{
    /**
     * Save/restore PMU counter values across context switches so each
     * thread observes only its own events (the paper's kernel-side
     * virtualization). Turning this off models raw per-CPU counters,
     * which leak other threads' events into measurements.
     */
    bool virtualizeCounters = true;
    /** Seed for per-thread RNG derivation. */
    std::uint64_t seed = 42;
};

/** The OS: scheduler + syscalls + counter virtualization + PMIs. */
class Kernel : public sim::KernelIf
{
  public:
    /** Handler invoked when counter `ctr` wraps with PMIs enabled. */
    using PmiHandler = std::function<void(sim::Cpu &, sim::GuestContext *,
                                          unsigned ctr,
                                          std::uint32_t wraps)>;

    Kernel(sim::Machine &machine, const KernelConfig &config = {});
    ~Kernel() override;

    sim::Machine &machine() { return machine_; }
    const KernelConfig &config() const { return config_; }
    PerfSubsystem &perf() { return perf_; }

    /** @name Host-side setup & inspection @{ */

    /** Create a thread; placed round-robin across cores. */
    sim::ThreadId spawn(std::string name,
                        std::function<sim::Task<void>(sim::Guest &)> body);

    /** Create a thread with explicit placement. */
    sim::ThreadId spawnOn(sim::CoreId core, bool pinned, std::string name,
                          std::function<sim::Task<void>(sim::Guest &)> body);

    Thread &thread(sim::ThreadId tid);
    const Thread &thread(sim::ThreadId tid) const;
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }
    unsigned liveThreads() const { return liveThreads_; }

    /** Program counter `idx` identically on every core's PMU. */
    void configureCounter(unsigned idx, const sim::CounterConfig &cfg);

    /** Install/remove the PMI handler for counter `idx`. */
    void setPmiHandler(unsigned idx, PmiHandler handler);
    void clearPmiHandler(unsigned idx);

    std::uint64_t totalContextSwitches() const { return contextSwitches_; }

    /** Run the machine to completion. */
    sim::Tick run() { return machine_.run(); }
    /** @} */

    /** @name sim::KernelIf @{ */
    sim::SyscallOutcome syscall(
        sim::Cpu &cpu, sim::GuestContext &ctx, std::uint32_t nr,
        const std::array<std::uint64_t, 4> &args) override;
    void timerTick(sim::Cpu &cpu) override;
    void pmuOverflow(sim::Cpu &cpu, unsigned counter,
                     std::uint32_t wraps) override;
    void threadExited(sim::Cpu &cpu, sim::GuestContext &ctx) override;
    bool poll(sim::Tick now) override;
    bool allThreadsDone() const override { return liveThreads_ == 0; }
    std::string blockedReport() const override;
    /** @} */

  private:
    friend class PerfSubsystem;

    Thread &threadOf(sim::GuestContext &ctx);

    /** Pop the next runnable thread for `core` (steals when allowed). */
    Thread *pickNext(sim::CoreId core);

    /**
     * Remove the running thread from `cpu`: charge switch cost, save
     * virtualized counters, transition to `to`.
     */
    void deschedule(sim::Cpu &cpu, Thread &t, ThreadState to,
                    bool voluntary);

    /** Install `t` on `cpu` (restore counters, start a fresh quantum). */
    void installThread(sim::Cpu &cpu, Thread &t);

    /** Make a blocked/sleeping thread runnable and place it. */
    void wakeThread(Thread &t, sim::Tick earliest,
                    std::uint64_t wake_value);

    /**
     * Deliver a fault-injected spurious futex wakeup: drop `t` from its
     * wait queue and wake it with the normal success result.
     */
    void deliverSpuriousWake(Thread &t, sim::Tick at);

    /** Re-arm the machine's poll hint from both timed-wake heaps. */
    void armPollHint();

    /** Dispatch body of syscall(); the public entry point wraps it in
     *  enter/exit tracepoints. */
    sim::SyscallOutcome syscallImpl(
        sim::Cpu &cpu, sim::GuestContext &ctx, std::uint32_t nr,
        const std::array<std::uint64_t, 4> &args);

    /** @name Syscall implementations @{ */
    sim::SyscallOutcome sysFutexWaitImpl(
        sim::Cpu &cpu, Thread &t,
        const std::array<std::uint64_t, 4> &args);
    sim::SyscallOutcome sysFutexWakeImpl(
        sim::Cpu &cpu, Thread &t,
        const std::array<std::uint64_t, 4> &args);
    sim::SyscallOutcome sysSleepImpl(sim::Cpu &cpu, Thread &t,
                                     sim::Tick duration, sim::Tick cost);
    sim::SyscallOutcome sysYieldImpl(sim::Cpu &cpu, Thread &t);
    /** @} */

    sim::Machine &machine_;
    KernelConfig config_;
    Scheduler scheduler_;
    PerfSubsystem perf_;
    Rng rng_;

    std::vector<std::unique_ptr<Thread>> threads_;
    unsigned liveThreads_ = 0;
    sim::CoreId nextSpawnCore_ = 0;
    std::uint64_t contextSwitches_ = 0;

    std::unordered_map<const std::uint64_t *, std::deque<sim::ThreadId>>
        futexQueues_;

    /** Min-heap of (wakeTick, tid). */
    using SleepEntry = std::pair<sim::Tick, sim::ThreadId>;
    using SleepHeap = std::priority_queue<SleepEntry,
                                          std::vector<SleepEntry>,
                                          std::greater<>>;
    SleepHeap sleepers_;

    /** Fault-injected spurious futex wakeups still to deliver. */
    SleepHeap spuriousWakes_;

    std::array<PmiHandler, sim::maxPmuCounters> pmiHandlers_{};
};

} // namespace limit::os

#endif // LIMIT_OS_KERNEL_HH

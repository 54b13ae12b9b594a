/**
 * @file
 * The fault-injection hook interface.
 *
 * A FaultController is the observer/effector the simulator consults at
 * its hazard seams: the PEC read window, PMI delivery, counter
 * save/restore at context switches, syscall entry, and futex blocking.
 * Every seam holds a null-by-default pointer (the same zero-cost
 * pattern as LIMIT_TRACE): with no controller attached, each site costs
 * exactly one pointer test; with one attached, the controller can
 * deterministically perturb the run — force a preemption inside a read,
 * arm a counter to overflow mid-window, drop or delay a PMI, corrupt a
 * save/restore, stall a syscall, or wake a futex waiter spuriously.
 *
 * This header is deliberately dependency-light (sim/types.hh only, with
 * forward declarations for Cpu and GuestContext) so the sim/os/pec
 * layers can call the hooks without linking the fault library. Concrete
 * controllers — fault::PlanController, fault::Explorer's verifier —
 * live in the fault library proper (see plan.hh, explorer.hh and
 * docs/FAULTS.md).
 */

#ifndef LIMIT_FAULT_CONTROLLER_HH
#define LIMIT_FAULT_CONTROLLER_HH

#include <cstdint>

#include "sim/types.hh"

namespace limit::sim {
class Cpu;
class GuestContext;
} // namespace limit::sim

namespace limit::fault {

/**
 * Position inside a PEC read sequence. The pec::PecSession read
 * routines report each position they pass through; a controller keyed
 * on a step perturbs the machine between the two ops that bracket it.
 * Not every policy visits every step: None stops at AfterRdpmc with no
 * accumulator load, NaiveSum/KernelFixup have no recheck load, and
 * retried reads (double-check, kernel-fixup restart) revisit the steps
 * once per iteration.
 */
enum class ReadStep : std::uint8_t {
    Enter = 0,        ///< before the first op of the read sequence
    AfterAccumLoad,   ///< accumulator loaded, rdpmc not yet executed
    AfterRdpmc,       ///< hardware value latched
    AfterRecheckLoad, ///< double-check's second accumulator load done
    NumSteps, // must be last
};

/** Number of distinct read-window steps. */
inline constexpr unsigned numReadSteps =
    static_cast<unsigned>(ReadStep::NumSteps);

/** What to do with one counter save or restore at a context switch. */
struct SaveRestoreAction
{
    /** Pretend the MSR access never happened (stale value persists). */
    bool skip = false;
    /** Replace the transferred value with `value`. */
    bool corrupt = false;
    std::uint64_t value = 0;
};

/** What to do with one pending PMI about to be delivered. */
struct PmiAction
{
    /** Discard the interrupt; its wraps are never accumulated. */
    bool drop = false;
    /** Hold delivery until at least `delay` ticks from now (0 = none). */
    sim::Tick delay = 0;
};

/**
 * Hook interface consulted by the simulator's fault seams. Every
 * default implementation is a no-op returning "no fault", so a
 * controller overrides only the seams it cares about. Hooks are called
 * on the simulation's single host thread; controllers need no locking.
 */
class FaultController
{
  public:
    virtual ~FaultController() = default;

    /**
     * The calling thread is at `step` of a PEC read of counter `ctr`
     * (also fired, with the same step vocabulary, by readDelta). Fired
     * between guest ops: mutations to the machine (quantum, counter
     * values) take effect before the next op executes.
     */
    virtual void
    onPecReadStep(sim::GuestContext &ctx, unsigned ctr, ReadStep step)
    {
        (void)ctx;
        (void)ctr;
        (void)step;
    }

    /**
     * A PMI for counter `ctr` (wrapping `wraps` times) is about to be
     * delivered on `cpu`. Consulted once per interrupt, at the first
     * delivery attempt.
     */
    virtual PmiAction
    onPmiDeliver(sim::Cpu &cpu, unsigned ctr, std::uint32_t wraps)
    {
        (void)cpu;
        (void)ctr;
        (void)wraps;
        return {};
    }

    /**
     * Counter `ctr` of thread `tid` is being saved at switch-out with
     * `value` (after any sampling-mode adjustment).
     */
    virtual SaveRestoreAction
    onCounterSave(sim::Cpu &cpu, sim::ThreadId tid, unsigned ctr,
                  std::uint64_t value)
    {
        (void)cpu;
        (void)tid;
        (void)ctr;
        (void)value;
        return {};
    }

    /** Counter `ctr` of thread `tid` is being restored at switch-in. */
    virtual SaveRestoreAction
    onCounterRestore(sim::Cpu &cpu, sim::ThreadId tid, unsigned ctr,
                     std::uint64_t value)
    {
        (void)cpu;
        (void)tid;
        (void)ctr;
        (void)value;
        return {};
    }

    /**
     * Thread `tid` entered the kernel for syscall `nr`. Returned ticks
     * are charged as extra kernel work before the handler runs (a
     * stalled slow path).
     */
    virtual sim::Tick
    onSyscallEnter(sim::Cpu &cpu, sim::ThreadId tid, std::uint32_t nr)
    {
        (void)cpu;
        (void)tid;
        (void)nr;
        return 0;
    }

    /**
     * Thread `tid` is about to block on the futex word at simulated
     * address `addr`. A nonzero return schedules a spurious wakeup
     * that many ticks from now: the thread is woken without a
     * matching futexWake and, like a real spurious wakeup, observes a
     * successful (0) wait result.
     */
    virtual sim::Tick
    onFutexBlock(sim::Cpu &cpu, sim::ThreadId tid, sim::Addr addr)
    {
        (void)cpu;
        (void)tid;
        (void)addr;
        return 0;
    }
};

} // namespace limit::fault

#endif // LIMIT_FAULT_CONTROLLER_HH

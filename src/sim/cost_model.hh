/**
 * @file
 * Calibrated cycle costs for every modelled operation.
 *
 * The absolute values are calibrated against published measurements on
 * ~2011-era Xeon-class hardware at the nominal 3 GHz clock (see
 * DESIGN.md): a PMC fast read lands in the low tens of nanoseconds, a
 * perf_event-style syscall read in the low microseconds, a PAPI-style
 * read between the two — reproducing the one-to-two orders of
 * magnitude access-cost gap the paper reports. Every cost is a named
 * constant: the published tables come from this one calibration, and
 * a closed-form cycle count of a run is built from these same terms.
 * The scheduler quantum, which experiments do vary, is
 * MachineConfig::quantum.
 */

#ifndef LIMIT_SIM_COST_MODEL_HH
#define LIMIT_SIM_COST_MODEL_HH

#include "sim/types.hh"

namespace limit::sim {

/** Per-op branch behaviour for compute blocks. */
struct ComputeProfile
{
    /** Fraction of instructions that are branches. */
    double branchFrac = 0.18;
    /** Probability a branch mispredicts. */
    double mispredictRate = 0.03;
};

// --- core ---
/** Penalty cycles per branch mispredict. */
inline constexpr Tick mispredictPenalty = 14;

// --- PMU access ---
/**
 * Cycles for an rdpmc-style userspace counter read (the serializing
 * read itself dominates the fast-read routine; calibrated so a full
 * PEC read lands at the paper's ~37 ns).
 */
inline constexpr Tick rdpmcCost = 100;
/** Cycles for a kernel wrmsr-style counter write/read (per MSR). */
inline constexpr Tick msrAccessCost = 110;

// --- privilege transitions ---
/** Cycles to enter the kernel on a trap/syscall. */
inline constexpr Tick trapEntryCost = 150;
/** Cycles to return to user mode. */
inline constexpr Tick trapExitCost = 150;
/** Cycles for PMI (counter-overflow interrupt) entry+exit. */
inline constexpr Tick pmiCost = 400;

// --- kernel routines ---
/** Base context-switch cost (scheduler + address space + regs). */
inline constexpr Tick contextSwitchCost = 3000;
/**
 * Extra context-switch cycles per PMU counter saved+restored when
 * counters are software-virtualized (two MSR accesses each).
 */
inline constexpr Tick counterSwitchCost = 2 * msrAccessCost;
/** Kernel work for a perf_event-style counter read syscall. */
inline constexpr Tick perfReadKernelCost = 9900;
/** Kernel work for a PAPI-style read (one lighter-weight syscall). */
inline constexpr Tick papiKernelCost = 1900;
/** Kernel work to record one PMU sample into the ring buffer. */
inline constexpr Tick sampleRecordCost = 3100;
/** Kernel work in the overflow handler for counter virtualization. */
inline constexpr Tick overflowVirtCost = 300;
/** Kernel work for futex wait enqueue. */
inline constexpr Tick futexWaitKernelCost = 1200;
/** Kernel work for futex wake. */
inline constexpr Tick futexWakeKernelCost = 900;
/** Kernel work for sched_yield. */
inline constexpr Tick yieldKernelCost = 600;
/** Kernel work for a generic cheap syscall (getpid-class). */
inline constexpr Tick trivialSyscallCost = 250;
/** Kernel work for a simulated network/disk I/O submission. */
inline constexpr Tick ioSyscallCost = 5200;
/** Kernel work to reap an exited thread. */
inline constexpr Tick exitKernelCost = 9000;
/** Kernel work for a rusage-style accounting read. */
inline constexpr Tick rusageKernelCost = 1400;
/** Cycles of timer-interrupt bookkeeping at each quantum end. */
inline constexpr Tick timerIrqCost = 1800;

/** Effective kernel IPC: instructions charged per kernel cycle. */
inline constexpr double kernelIpc = 0.8;

} // namespace limit::sim

#endif // LIMIT_SIM_COST_MODEL_HH

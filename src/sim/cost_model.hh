/**
 * @file
 * Calibrated cycle costs for every modelled operation.
 *
 * The absolute values are calibrated against published measurements on
 * ~2011-era Xeon-class hardware at the nominal 3 GHz clock (see
 * DESIGN.md): a PMC fast read lands in the low tens of nanoseconds, a
 * perf_event-style syscall read in the low microseconds, a PAPI-style
 * read between the two — reproducing the one-to-two orders of
 * magnitude access-cost gap the paper reports. Everything is a plain
 * data member so experiments can sweep or ablate individual costs.
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

/** All non-memory cycle costs in one tweakable bundle. */
struct CostModel
{
    // --- core ---
    /** Penalty cycles per branch mispredict. */
    Tick mispredictPenalty = 14;

    // --- PMU access ---
    /**
     * Cycles for an rdpmc-style userspace counter read (the
     * serializing read itself dominates the fast-read routine;
     * calibrated so a full PEC read lands at the paper's ~37 ns).
     */
    Tick rdpmcCost = 100;
    /** Cycles for a kernel wrmsr-style counter write/read (per MSR). */
    Tick msrAccessCost = 110;

    // --- privilege transitions ---
    /** Cycles to enter the kernel on a trap/syscall. */
    Tick trapEntryCost = 150;
    /** Cycles to return to user mode. */
    Tick trapExitCost = 150;
    /** Cycles for PMI (counter-overflow interrupt) entry+exit. */
    Tick pmiCost = 400;

    // --- kernel routines ---
    /** Base context-switch cost (scheduler + address space + regs). */
    Tick contextSwitchCost = 3000;
    /**
     * Extra context-switch cycles per PMU counter saved+restored when
     * counters are software-virtualized (two MSR accesses each).
     */
    Tick counterSwitchCost = 2 * 110;
    /** Kernel work for a perf_event-style counter read syscall. */
    Tick perfReadKernelCost = 9900;
    /** Userspace library work per PAPI-style read (caching layer). */
    Tick papiUserCost = 380;
    /** Kernel work for a PAPI-style read (one lighter-weight syscall). */
    Tick papiKernelCost = 1900;
    /** Kernel work to record one PMU sample into the ring buffer. */
    Tick sampleRecordCost = 3100;
    /** Kernel work in the overflow handler for counter virtualization. */
    Tick overflowVirtCost = 300;
    /** Kernel work for futex wait enqueue. */
    Tick futexWaitKernelCost = 1200;
    /** Kernel work for futex wake. */
    Tick futexWakeKernelCost = 900;
    /** Kernel work for sched_yield. */
    Tick yieldKernelCost = 600;
    /** Kernel work for a generic cheap syscall (getpid-class). */
    Tick trivialSyscallCost = 250;
    /** Kernel work for a simulated network/disk I/O submission. */
    Tick ioSyscallCost = 5200;
    /** Kernel work to create a thread. */
    Tick spawnKernelCost = 24000;
    /** Kernel work to reap an exited thread. */
    Tick exitKernelCost = 9000;
    /** Kernel work for a rusage-style accounting read. */
    Tick rusageKernelCost = 1400;
    /** Cycles of timer-interrupt bookkeeping at each quantum end. */
    Tick timerIrqCost = 1800;

    // --- scheduling ---
    /** Scheduler time slice in cycles (4 ms at 3 GHz by default). */
    Tick quantum = 12'000'000;

    /** Effective kernel IPC: instructions charged per kernel cycle. */
    double kernelIpc = 0.8;
};

} // namespace limit::sim

#endif // LIMIT_SIM_COST_MODEL_HH

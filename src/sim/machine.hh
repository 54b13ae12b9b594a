/**
 * @file
 * The whole simulated machine: cores + memory + kernel binding.
 */

#ifndef LIMIT_SIM_MACHINE_HH
#define LIMIT_SIM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/cpu.hh"
#include "sim/memory_if.hh"
#include "sim/pmu.hh"
#include "sim/region_table.hh"
#include "sim/types.hh"

namespace limit::trace {
class Tracer;
}

namespace limit::fault {
class FaultController;
}

namespace limit::sim {

class KernelIf;

/** Whole-machine construction parameters. */
struct MachineConfig
{
    unsigned numCores = 4;
    unsigned pmuCounters = 4;
    PmuFeatures pmuFeatures{};
    CostModel costs{};
    std::uint64_t seed = 1;
    /**
     * Hard wall: a core whose local clock passes this tick indicates a
     * runaway simulation (guests ignoring the stop request).
     */
    Tick hardLimit = maxTick;
    /**
     * Horizon-batched execution, which replays every loop a guest
     * declared (see DESIGN.md "Safe-horizon batching" and "Superblock
     * replay"); false selects the per-op reference scheduler, its
     * bit-identity oracle. Effective only while
     * batchedExecutionDefault() is also on: LIMITPP_FORCE_NO_BATCH
     * in the environment forces the per-op loop everywhere
     * regardless of this field.
     */
    bool batched = true;
};

/**
 * Host work one run cost the simulator, counted exactly: one plain
 * increment at each call site, always on. The counts depend only on
 * the seed, the workload and the execution mode, never on the host,
 * so tests/test_work.cc pins them: a change that does more host work
 * per guest op fails a test instead of slowing a timer.
 */
struct WorkStats
{
    /** Scheduler rounds: batches in batched mode, ops per-op. */
    std::uint64_t rounds = 0;
    /** Guest ops executed across all rounds, replayed ops included. */
    std::uint64_t guestOps = 0;
    /** KernelIf::poll calls; the kernel's poll hint elides the rest. */
    std::uint64_t polls = 0;
    /** Full MemoryIf::access calls (fast-path misses and atomics). */
    std::uint64_t accessCalls = 0;
    /** MemoryIf::tryFastAccess probes, and the ones that hit. */
    std::uint64_t fastTries = 0;
    std::uint64_t fastHits = 0;
};

/**
 * Process-wide master switch for horizon-batched execution, consulted
 * by every Machine::run: false when LIMITPP_FORCE_NO_BATCH is set in
 * the environment to anything but "" or "0" (read once).
 */
bool batchedExecutionDefault();

/**
 * Deterministic multi-core machine.
 *
 * The run loop repeatedly steps the non-idle core with the smallest
 * local clock, which serializes op commits in global time order and
 * makes whole runs reproducible bit for bit.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }
    unsigned numCores() const { return static_cast<unsigned>(cpus_.size()); }
    Cpu &cpu(CoreId id);
    RegionTable &regions() { return regions_; }

    /** Install the OS; required before run(). */
    void setKernel(KernelIf *kernel) { kernel_ = kernel; }
    KernelIf *kernel();

    /** Replace the memory model (defaults to FlatMemory). */
    void setMemory(MemoryIf *memory);
    MemoryIf *memory() { return memory_; }

    /**
     * Attach a trace sink (nullptr detaches). The machine does not
     * own it; tracepoints across the kernel, CPUs, and PEC session
     * find it here and stay silent while it is null.
     */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }
    trace::Tracer *tracer() const { return tracer_; }

    /**
     * Attach a fault controller (nullptr detaches). Like the tracer,
     * the machine does not own it; the injection seams in the kernel,
     * the CPUs, and the PEC session find it here, and while it is null
     * each seam costs exactly one pointer test.
     */
    void setFaults(fault::FaultController *faults) { faults_ = faults; }
    fault::FaultController *faults() const { return faults_; }

    /**
     * Attach a timeline recorder (nullptr detaches). Not owned; the
     * recorder is (re)attached to the machine's core count and each
     * core gets its lane pointer. Call recorder.finalize(maxTime())
     * after run() before reading slices.
     */
    void setTimeline(TimelineRecorder *timeline);
    TimelineRecorder *timeline() const { return timeline_; }

    /**
     * Ask guests to wind down once any core reaches `t`
     * (Guest::shouldStop turns true); does not forcibly stop them.
     */
    void requestStopAt(Tick t) { stopAt_ = t; }
    bool
    stopRequested(Tick now) const
    {
        return stopAt_ != 0 && now >= stopAt_;
    }

    /**
     * Kernel hint: no timed wake can happen before tick `t`, so the
     * run loop may skip poll() until then. The hint is cleared (reset
     * to "poll every step") right before each poll() call, so a kernel
     * that never re-arms it keeps the conservative behaviour.
     */
    void setNextPoll(Tick t) { nextPollAt_ = t; }

    /**
     * Run until every thread has exited. Panics on deadlock (live
     * threads but nothing runnable) or when a core passes the
     * configured hard limit.
     * @return the largest core-local time reached.
     */
    Tick run();

    /** Largest core-local clock. */
    Tick maxTime() const;

    /**
     * Host work counted over every run() so far; every core counts
     * into this one block.
     */
    WorkStats &work() { return work_; }
    const WorkStats &work() const { return work_; }
    /** Scheduler rounds taken by run() (batches in batched mode). */
    std::uint64_t batchRounds() const { return work_.rounds; }
    /** Guest ops executed across all rounds. */
    std::uint64_t batchOps() const { return work_.guestOps; }

    /**
     * Machine-wide superblock replay statistics; every core counts
     * into this one block.
     */
    SuperblockStats &superblockStats() { return sbStats_; }
    const SuperblockStats &superblockStats() const { return sbStats_; }

  private:
    Tick runPerOp();
    Tick runBatched();

    MachineConfig config_;
    /** Declared before cpus_: each Cpu binds a reference to both. */
    SuperblockStats sbStats_;
    WorkStats work_;
    std::vector<std::unique_ptr<Cpu>> cpus_;
    FlatMemory flatMemory_;
    MemoryIf *memory_ = nullptr;
    KernelIf *kernel_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    fault::FaultController *faults_ = nullptr;
    TimelineRecorder *timeline_ = nullptr;
    RegionTable regions_;
    Tick stopAt_ = 0;
    Tick nextPollAt_ = 0;
};

} // namespace limit::sim

#endif // LIMIT_SIM_MACHINE_HH

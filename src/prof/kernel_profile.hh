/**
 * @file
 * Per-thread kernel-interaction attribution.
 *
 * A KernelProfile decomposes each thread's work into user and kernel
 * cycles/instructions (from the simulator's exact ledger — the same
 * ground truth E7 cross-checks its mode-filtered counters against),
 * counts voluntary/involuntary context switches and PMIs, and builds
 * syscall-by-number latency histograms by pairing syscall-enter/exit
 * trace records. For blocking syscalls the recorded latency is the
 * kernel-path core occupancy (enter to the completion stamp on the
 * issuing core), not wall-clock blocked time.
 *
 * Built host-side after the run; attaching one never perturbs the
 * simulation. Without a tracer attached to the run the syscall
 * histograms and PMI counts are empty — the ledger-based
 * decomposition and switch counts remain exact.
 */

#ifndef LIMIT_PROF_KERNEL_PROFILE_HH
#define LIMIT_PROF_KERNEL_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "stats/hdr_histogram.hh"
#include "trace/trace.hh"

namespace limit::os {
class Kernel;
}

namespace limit::prof {

/** Latency aggregate for one syscall number on one thread. */
struct SyscallStats
{
    std::uint64_t calls = 0;
    stats::HdrHistogram latencyCycles;

    void merge(const SyscallStats &other);
};

/** Kernel-interaction aggregates for one thread. */
struct ThreadKernelStats
{
    std::string name;
    std::uint64_t userCycles = 0;
    std::uint64_t kernelCycles = 0;
    std::uint64_t userInstructions = 0;
    std::uint64_t kernelInstructions = 0;
    std::uint64_t voluntarySwitches = 0;
    std::uint64_t involuntarySwitches = 0;
    /** PMIs delivered while this thread was current. */
    std::uint64_t pmis = 0;
    /** Keyed by syscall number, sorted. */
    std::map<std::uint32_t, SyscallStats> syscalls;

    std::uint64_t totalCycles() const { return userCycles + kernelCycles; }
    std::uint64_t
    totalInstructions() const
    {
        return userInstructions + kernelInstructions;
    }

    void merge(const ThreadKernelStats &other);
};

/** Per-thread kernel profile for one run (mergeable across runs). */
class KernelProfile
{
  public:
    /** Per-thread entry, created on first use. */
    ThreadKernelStats &thread(sim::ThreadId tid);

    const std::map<sim::ThreadId, ThreadKernelStats> &threads() const
    {
        return threads_;
    }

    /** @name Process-wide totals @{ */
    std::uint64_t userCycles() const;
    std::uint64_t kernelCycles() const;
    std::uint64_t userInstructions() const;
    std::uint64_t kernelInstructions() const;
    std::uint64_t pmis() const;
    std::uint64_t syscallCount() const;
    /** @} */

    /** Fold another profile in, matching threads by tid. */
    void merge(const KernelProfile &other);

  private:
    std::map<sim::ThreadId, ThreadKernelStats> threads_;
};

/**
 * Harvest a KernelProfile from a finished run: exact ledger
 * decomposition and switch counts from `kernel`'s threads, syscall
 * latencies and PMI counts from `records` (a time-ordered trace
 * snapshot, e.g. Tracer::merged()). Enter and exit records that do
 * not pair up, as in a list cut out of a longer run, are skipped.
 */
KernelProfile buildKernelProfile(
    os::Kernel &kernel, const std::vector<trace::TraceRecord> &records);

} // namespace limit::prof

#endif // LIMIT_PROF_KERNEL_PROFILE_HH

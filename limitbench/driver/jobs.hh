/**
 * @file
 * The benchmark's workloads: job lists taken from the published
 * experiments (E5 case studies and E3 read density in one, E11
 * SPEC-like kernels in the other), one job per simulated machine, each
 * folded into a digest of its simulated results.
 */

#ifndef LIMITBENCH_JOBS_HH
#define LIMITBENCH_JOBS_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hh"
#include "prof/sync_profile.hh"
#include "sim/types.hh"

namespace limitbench {

/** A benchmark workload: a fixed job list drawn from experiments. */
enum class Workload : std::uint8_t { CaseStudies, SpecKernels };

inline constexpr Workload allWorkloads[] = {Workload::CaseStudies,
                                            Workload::SpecKernels};

const char *workloadName(Workload w);
std::optional<Workload> parseWorkload(std::string_view name);

/** The published experiment a job reproduces one table cell of. */
enum class Experiment : std::uint8_t {
    E5,  ///< synchronization case studies (bench_e05_sync_study)
    E11, ///< SPEC-like kernels (bench_e11_characterization)
    E3,  ///< read-density sweep (bench_e03_overhead_scaling)
};

/** One table cell of one experiment at one replicate seed. */
struct Job
{
    Experiment experiment = Experiment::E5;
    /** App, kernel, or (density, method) index within the experiment. */
    unsigned cell = 0;
    /** Offsets every machine and workload seed, as --seeds does. */
    std::uint64_t seed = 0;
    /** Simulated run length. */
    sim::Tick ticks = 0;
};

/**
 * The job list of one pass: every cell of each of the workload's
 * experiments, each at the same R consecutive replicate seeds starting
 * at seed * R (benchmark seed 0 starts with the published tables' own
 * seed). Jobs of one experiment are contiguous and cell-major.
 */
std::vector<Job> jobList(Workload w, std::uint64_t seed);

/** Human-readable cell label ("oltp (MySQL-like)", "1/4 papi-like"). */
std::string cellName(const Job &job);

/**
 * The simulated results one job is judged by. Everything here is a
 * deterministic function of the job, so it must repeat exactly across
 * passes, with and without the layer wrappers, and across builds that
 * only change host performance.
 */
struct Outcome
{
    /** guard::foldRun over end tick, ledgers (all 11 events, both
     *  modes, every thread), context switches and final PMU values. */
    std::uint64_t ledgerHash = 0;
    /** Hit and miss counts of every cache and TLB. */
    std::uint64_t memHash = 0;
    std::uint64_t workItems = 0;
    std::uint64_t syncAcquisitions = 0;
    std::uint64_t syncContended = 0;
    std::uint64_t syncWaitCycles = 0;
    std::uint64_t syncHoldCycles = 0;
    std::uint64_t pecRegionEntries = 0;
    std::uint64_t pecReadRestarts = 0;
    std::uint64_t pecOverflowFixups = 0;
    std::uint64_t pecDoubleCheckRetries = 0;

    /** FNV-1a over every field above. */
    std::uint64_t digest() const;
};

/** Per-layer work and time of one job, or a sum over jobs. Work
 *  items and the sync and PEC counts are the job's Outcome. */
struct LayerStats
{
    /** @name Phase spans (host seconds) @{ */
    double bundleBuildS = 0;
    double spawnS = 0;
    double runS = 0;
    /** @} */
    /** SimBundle::run span in TSC ticks (converts wrapper ticks). */
    std::uint64_t runTicks = 0;

    std::uint64_t guestOps = 0;
    std::uint64_t rounds = 0;
    std::uint64_t guestInstr = 0;
    std::uint64_t guestCycles = 0;
    std::uint64_t sbReplayed = 0;
    std::uint64_t sbRecorded = 0;
    std::uint64_t sbBridges = 0;
    std::uint64_t sbRefusals = 0;

    MemCounts mem;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t dtlbMisses = 0;

    KernelCounts os;
    std::uint64_t contextSwitches = 0;

    std::uint64_t pecReads = 0;
    std::uint64_t baselineReads = 0;

    void add(const LayerStats &o);
};

/** What the pass-level report of each experiment needs from a job. */
struct ReportInputs
{
    /** Case studies: lock profile plus the cycles it is a share of. */
    limit::prof::SyncProfile sync;
    std::uint64_t totalCycles = 0;
    /** SPEC-like kernels: the E11 row (rates as E11 defines them). */
    double ipc = 0;
    double l1MissPct = 0;
    double llcMpki = 0;
    double branchMpki = 0;
    double dtlbMpki = 0;
    double kernelPct = 0;
    double switchesPerMcycle = 0;
};

/** One phase of a job on the host clock, in seconds since the epoch
 *  the run passes in (written out with the traced run's spans). */
struct Span
{
    const char *name = "";
    double startS = 0;
    double endS = 0;
};

/** Everything one job produced. */
struct JobResult
{
    /** Non-empty when the job threw; the other fields are then void. */
    std::string error;
    Outcome outcome;
    /** Host seconds of the whole job. */
    double hostS = 0;
    /** Host seconds building the bundle and constructing and spawning
     *  the workload, PEC session and profiler. */
    double setupS = 0;
    LayerStats layers;
    ReportInputs report;
    /** bundle / spawn / run phases (traced runs only). */
    std::vector<Span> spans;
};

/**
 * Run one job on the calling thread. With `traced` set, the memory,
 * kernel and counter-source wrappers are installed after the bundle
 * is built and their counts and times land in result.layers; the
 * simulated outcome is the same either way. Exceptions are caught
 * and returned in result.error.
 */
JobResult runJob(const Job &job, bool traced,
                 std::chrono::steady_clock::time_point epoch = {});

/**
 * Build the published reports of the workload's experiments from one
 * pass's results (E5's prof::Report tables and markdown, E11's and
 * E3's tables) and return their text. Failed jobs are left out.
 */
std::string buildReport(Workload w, const std::vector<Job> &jobs,
                        const std::vector<JobResult> &results);

} // namespace limitbench

#endif // LIMITBENCH_JOBS_HH

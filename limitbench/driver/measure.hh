/**
 * @file
 * One benchmark run: passes over a workload's job list, the
 * correctness check against reference digests, and the metrics.
 */

#ifndef LIMITBENCH_MEASURE_HH
#define LIMITBENCH_MEASURE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "jobs.hh"

namespace limitbench {

/** Command-line settings of one run. */
struct RunOptions
{
    Workload workload = Workload::CaseStudies;
    std::uint64_t seed = 0;
    /** Measurement budget; a run always completes whole passes. */
    double seconds = 20;
    /** Per-layer run (wrappers on) instead of the end-to-end run. */
    bool trace = false;
    /** Reference digests file; empty checks self-consistency only. */
    std::string referencePath;
    /** Traced runs: where to write the phase spans (Chrome JSON). */
    std::string spansPath;
};

/** Per-job reference digests by (workload, seed). */
using References =
    std::map<std::pair<std::string, std::uint64_t>, std::vector<std::uint64_t>>;

/**
 * Parse a reference file: one line per (workload, seed) holding
 * "<workload> <seed> <hex digest of each job, in job order>"; '#'
 * starts a comment line. Returns false with `error` set on bad input.
 */
bool parseReferences(const std::string &text, References &out,
                     std::string &error);

/**
 * Count job results that threw or whose outcome digest differs from
 * `expected` (one digest per job, in job order).
 */
std::size_t countFailures(const std::vector<JobResult> &results,
                          const std::vector<std::uint64_t> &expected);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The result line's content. */
struct RunSummary
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** The one-line JSON object the run ends with. */
std::string resultJson(const RunSummary &summary);

/**
 * Measure one run as `options` asks, printing a readable account to
 * `out`; the caller prints resultJson() of the returned summary.
 */
RunSummary runBenchmark(const RunOptions &options,
                        const References &references, std::FILE *out);

/** One untraced pass; its per-job digests as a reference-file line. */
std::string digestLine(Workload w, std::uint64_t seed);

} // namespace limitbench

#endif // LIMITBENCH_MEASURE_HH

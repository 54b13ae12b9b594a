/**
 * @file
 * Everything a bench run writes, behind one call.
 *
 * A simulated bench makes one dedicated representative run whenever
 * BenchArgs::instrumented() is true. It builds that run's bundle with
 * BundleOptions::Builder::capture(&args), so the run records what the
 * requested artifacts need, and hands the finished bundle to
 * writeArtifacts:
 *
 *   --trace FILE     Chrome-trace JSON of the run (docs/TRACING.md),
 *                    with runCounters as its "metrics" block
 *   --timeline FILE  limitpp-timeline-v1 JSON of the run
 *                    (docs/TIMELINE.md)
 *   --profile FILE   the bench's prof::Report (docs/PROFILING.md),
 *                    with runCounters and a bench/seeds/jobs stamp
 *                    as its "meta"
 *
 * runCounters is the one list of exported counters, so the trace's
 * metrics and the profile's meta agree key for key. The published
 * tables come from the uninstrumented runs and never see this one.
 */

#ifndef LIMIT_ANALYSIS_ARTIFACTS_HH
#define LIMIT_ANALYSIS_ARTIFACTS_HH

#include <string>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "prof/report.hh"
#include "trace/exporter.hh"

namespace limit::analysis {

/**
 * The counters every run artifact exports, named once here:
 * simulated end time, threads, context switches, ledger instruction
 * and cycle totals, host work (sim::WorkStats), superblock replay
 * stats and, when a tracer is attached, the record total and
 * per-category record counts. Host-work counts depend on the
 * execution mode, so no table and no fingerprint reads them.
 */
std::vector<trace::RunCounter> runCounters(SimBundle &bundle);

/**
 * Write the artifacts `args` requests. --trace and --timeline come
 * from the representative run `rep`; the trace carries the
 * timeline's counter tracks when both are given. --profile writes
 * `report`, with rep's runCounters and the bench/seeds/jobs stamp
 * added to its meta. Prints each path it writes. Tries every
 * requested file, then exits with status 1 (fatal) when any of them
 * could not be written.
 */
void writeArtifacts(const BenchArgs &args, const std::string &bench,
                    prof::Report &report, SimBundle &rep);

/**
 * The same for a bench with no report of its own: the profile holds
 * rep's prof::KernelProfile (per-thread user/kernel decomposition and
 * syscall latencies).
 */
void writeArtifacts(const BenchArgs &args, const std::string &bench,
                    SimBundle &rep);

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_ARTIFACTS_HH

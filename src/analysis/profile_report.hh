/**
 * @file
 * One call from a bench's main: write the --trace and --profile
 * artifacts of an instrumented representative run.
 *
 * Keeps every bench's artifact handling identical: when --trace was
 * given the Chrome-trace JSON is written (via writeTraceReport, which
 * also warns about ring drops); when --profile was given the
 * prof::Report JSON goes to --profile-out. Benches that build richer
 * reports (E5–E7) populate the Report themselves and still funnel it
 * through here so the output path logic lives in one place.
 */

#ifndef LIMIT_ANALYSIS_PROFILE_REPORT_HH
#define LIMIT_ANALYSIS_PROFILE_REPORT_HH

#include <string>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "prof/report.hh"

namespace limit::analysis {

/**
 * Write the profile artifact when --profile was requested: stamp
 * bench/seeds/jobs metadata and write `report` to --profile-out.
 * For benches whose report aggregates many bundles (ParallelRunner
 * fan-out) — no per-bundle metadata is added, keeping the JSON
 * byte-identical across job counts. Returns false only when a
 * requested write failed.
 */
bool writeProfile(prof::Report &report, const BenchArgs &args,
                  const std::string &bench);

/**
 * Write the timeline artifact when --timeline was requested:
 * finalize `bundle`'s recorder, build the phase-segmented section,
 * write the limitpp-timeline-v1 JSON to --timeline and print the
 * ASCII heatmap. No seeds/jobs metadata is stamped — the capture
 * comes from the dedicated representative run, so the artifact is
 * byte-identical across --jobs and execution modes. Returns false
 * when the bench requested a timeline but its representative bundle
 * attached no recorder, or when the write failed.
 */
bool writeTimeline(SimBundle &bundle, const BenchArgs &args,
                   const std::string &bench);

/**
 * Write the run artifacts requested on the command line:
 * --trace FILE → Chrome-trace JSON from `bundle`'s tracer (with
 * timeline counter tracks when --timeline is also active);
 * --timeline FILE → limitpp-timeline-v1 JSON;
 * --profile / --profile-out FILE → `report` as profile JSON, with
 * `bundle`'s runCounters as meta.
 * Returns false when a requested artifact could not be written.
 */
bool writeRunArtifacts(SimBundle &bundle, const BenchArgs &args,
                       prof::Report &report, const std::string &bench);

/**
 * The one-liner for benches with no richer report of their own:
 * build a prof::KernelProfile of `bundle`'s run (per-thread
 * user/kernel decomposition, syscall latencies when traced) as the
 * report's only section and write the requested artifacts.
 */
bool writeStandardArtifacts(SimBundle &bundle, const BenchArgs &args,
                            const std::string &bench);

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_PROFILE_REPORT_HH

/**
 * @file
 * Shared command-line parsing for the bench binaries.
 *
 * Every bench accepts the same knobs:
 *   --seeds N        repetitions averaged per table point (statistical
 *                    depth; benches with no seed sweep document how
 *                    they interpret it, typically as a repetition
 *                    count)
 *   --jobs N         host threads for the ParallelRunner fan-out
 *                    (0 = one per hardware thread)
 *   --trace FILE     write a Chrome-trace JSON of one representative
 *                    run (Perfetto-loadable; see docs/TRACING.md)
 *   --trace-cap N    per-core trace ring capacity in records
 *   --faults SPEC    deterministic fault plan injected into runs that
 *                    support it (grammar in docs/FAULTS.md; validated
 *                    here so typos fail fast even in benches that
 *                    ignore the plan)
 *   --profile FILE   write the prof::Report JSON profile of the
 *                    bench, with the representative run's counters
 *                    as its meta (see docs/PROFILING.md)
 *   --timeline FILE  write a limitpp-timeline-v1 JSON of one
 *                    representative run: exact per-core PMU event
 *                    deltas per guest-cycle interval with phase
 *                    segmentation (see docs/TIMELINE.md)
 *   --timeline-interval N  slice width in guest cycles (default
 *                    65536, minimum 256)
 * so `bench_e04 --seeds 16 --jobs 8 --trace e04.json` deepens,
 * parallelizes, and instruments a reproduction run without editing
 * source. Flags also accept the --flag=value spelling. Parsing is
 * deliberately tiny — a handful of flags and --help — rather than a
 * general option library. The execution mode is not a flag:
 * LIMITPP_FORCE_NO_BATCH=1 in the environment runs every machine on
 * the per-op reference scheduler (sim::batchedExecutionDefault).
 */

#ifndef LIMIT_ANALYSIS_ARGS_HH
#define LIMIT_ANALYSIS_ARGS_HH

#include <string>

namespace limit::analysis {

/** Parsed bench options (defaults supplied by each bench). */
struct BenchArgs
{
    unsigned seeds = 1;
    unsigned jobs = 1;
    /** Chrome-trace output path; empty = tracing off. */
    std::string trace;
    /** Per-core trace ring capacity (records). */
    unsigned traceCap = 65536;
    /** Fault-plan spec (--faults); empty = no injection. Already
        validated by fault::Plan::parse — benches re-parse to use it. */
    std::string faults;
    /** Profile artifact path (--profile); empty = off. */
    std::string profile;
    /** Timeline artifact path (--timeline); empty = off. */
    std::string timeline;
    /** Timeline slice width in guest cycles (--timeline-interval). */
    unsigned timelineInterval = 65536;

    bool tracing() const { return !trace.empty(); }
    bool profiling() const { return !profile.empty(); }
    bool timelineOn() const { return !timeline.empty(); }

    /** Any artifact that needs the dedicated representative run. */
    bool
    instrumented() const
    {
        return tracing() || profiling() || timelineOn();
    }
};

/**
 * The per-bench knob defaults — deliberately only the fields benches
 * customize, so `{.seeds = 3, .jobs = 0}` initializes it exhaustively
 * (tracing and fault injection always default to off).
 */
struct BenchDefaults
{
    unsigned seeds = 1;
    unsigned jobs = 1;
};

/**
 * Outcome of a parse attempt. Exactly one of three shapes: success
 * (`ok() && !help`), a --help request (`ok() && help`), or a malformed
 * command line (`!ok()`, with a one-line reason naming the offending
 * flag and value).
 */
struct BenchParse
{
    BenchArgs args;
    bool help = false;
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse without touching the process: no printing, no exit. This is
 * the testable core — every rejection path (unknown flag, non-numeric
 * or negative value, missing operand, out-of-range, bad --faults
 * grammar) comes back as BenchParse::error.
 */
BenchParse tryParseBenchArgs(int argc, char **argv,
                             BenchDefaults defaults);

/**
 * Parse the flags listed at the top of this file from argv, starting
 * from the given defaults. Prints usage and exits(0) on
 * --help/-h; prints an error and exits(2) on unknown flags or
 * malformed values. `what_seeds` is the one-line meaning of --seeds
 * shown in --help (nullptr for the generic wording).
 */
BenchArgs parseBenchArgs(int argc, char **argv, BenchDefaults defaults,
                         const char *what_seeds = nullptr);

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_ARGS_HH

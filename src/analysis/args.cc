#include "analysis/args.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fault/plan.hh"

namespace limit::analysis {

namespace {

[[noreturn]] void
usage(const char *prog, const BenchDefaults &defaults,
      const char *what_seeds, int exit_code)
{
    std::FILE *out = exit_code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s [--seeds N] [--jobs N] [--trace FILE] "
        "[--trace-cap N] [--faults SPEC] [--profile FILE] "
        "[--timeline FILE] [--timeline-interval N]\n"
        "  --seeds N      %s (default %u)\n"
        "  --jobs N       host threads for parallel experiment "
        "fan-out; 0 = all hardware threads (default %u)\n"
        "  --trace FILE   write a Chrome-trace JSON (Perfetto-"
        "loadable) of one representative run\n"
        "  --trace-cap N  per-core trace ring capacity in records "
        "(default %u)\n"
        "  --faults SPEC  deterministic fault plan, e.g. "
        "'overflow-read:step=2;drop-pmi:nth=3' "
        "(see docs/FAULTS.md)\n"
        "  --profile FILE write a profile JSON (per-call-site lock "
        "stats, kernel decomposition, run counters; see "
        "docs/PROFILING.md)\n"
        "  --timeline FILE  write a limitpp-timeline-v1 JSON of one "
        "representative run: exact per-core PMU event deltas per "
        "guest-cycle interval (see docs/TIMELINE.md)\n"
        "  --timeline-interval N  timeline slice width in guest "
        "cycles (default %u, minimum 256)\n",
        prog,
        what_seeds ? what_seeds
                   : "repetitions averaged per table point",
        defaults.seeds, defaults.jobs, BenchArgs{}.traceCap,
        BenchArgs{}.timelineInterval);
    std::exit(exit_code);
}

/**
 * Parse a decimal unsigned into `out`; on failure fill `error` with a
 * message naming the flag and the offending text. Rejects negatives
 * explicitly (strtoul would silently wrap "-1" to a huge value).
 */
bool
parseUnsigned(const char *flag, const char *text, unsigned &out,
              std::string &error)
{
    if (text == nullptr || *text == '\0') {
        error = std::string(flag) + " needs a value";
        return false;
    }
    if (*text == '-') {
        error = std::string(flag) + " must not be negative: '" + text +
                "'";
        return false;
    }
    char *end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (*end != '\0') {
        error = std::string("bad value for ") + flag + ": '" + text +
                "' (not a decimal integer)";
        return false;
    }
    if (v > 100'000'000) {
        error = std::string(flag) + " value " + text +
                " is out of range (max 100000000)";
        return false;
    }
    out = static_cast<unsigned>(v);
    return true;
}

/**
 * Take `text` as the artifact path of `flag`. An empty operand, or one
 * that starts with '-' (the next flag, as in `--trace --profile`), is
 * not a file name.
 */
bool
parsePath(const char *flag, const char *text, std::string &out,
          std::string &error)
{
    if (*text == '\0' || *text == '-') {
        error = std::string(flag) + " needs a file name";
        return false;
    }
    out = text;
    return true;
}

/**
 * Match `arg` against `flag`, accepting both "--flag value" and
 * "--flag=value". Returns the value (consuming argv[i+1] in the first
 * form), or nullptr when `arg` is not this flag. A missing value is
 * reported via parse failure downstream (returns "").
 */
const char *
flagValue(const char *flag, const char *arg, int argc, char **argv,
          int &i)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0)
        return nullptr;
    if (arg[len] == '=')
        return arg + len + 1;
    if (arg[len] != '\0')
        return nullptr; // longer flag with this prefix
    return i + 1 < argc ? argv[++i] : "";
}

} // namespace

BenchParse
tryParseBenchArgs(int argc, char **argv, BenchDefaults defaults)
{
    BenchParse p;
    p.args.seeds = defaults.seeds;
    p.args.jobs = defaults.jobs;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            p.help = true;
            return p;
        } else if ((value = flagValue("--seeds", arg, argc, argv, i))) {
            if (!parseUnsigned("--seeds", value, p.args.seeds, p.error))
                return p;
            if (p.args.seeds == 0) {
                p.error = "--seeds must be >= 1";
                return p;
            }
        } else if ((value = flagValue("--jobs", arg, argc, argv, i))) {
            if (!parseUnsigned("--jobs", value, p.args.jobs, p.error))
                return p;
        } else if ((value =
                        flagValue("--trace-cap", arg, argc, argv, i))) {
            if (!parseUnsigned("--trace-cap", value, p.args.traceCap,
                               p.error)) {
                return p;
            }
            if (p.args.traceCap == 0) {
                p.error = "--trace-cap must be >= 1";
                return p;
            }
        } else if ((value = flagValue("--trace", arg, argc, argv, i))) {
            if (!parsePath("--trace", value, p.args.trace, p.error))
                return p;
        } else if ((value = flagValue("--faults", arg, argc, argv, i))) {
            if (*value == '\0') {
                p.error = "--faults needs a plan spec";
                return p;
            }
            fault::Plan plan;
            std::string plan_error;
            if (!fault::Plan::parse(value, plan, plan_error)) {
                p.error = std::string("bad --faults spec: ") +
                          plan_error;
                return p;
            }
            p.args.faults = value;
        } else if ((value = flagValue("--timeline-interval", arg, argc,
                                      argv, i))) {
            if (!parseUnsigned("--timeline-interval", value,
                               p.args.timelineInterval, p.error)) {
                return p;
            }
            // A degenerate interval silently allocates one slice per
            // few ops — gigabytes on a long run; reject like
            // --trace-cap 0 rather than letting it limp.
            if (p.args.timelineInterval < 256) {
                p.error = "--timeline-interval must be >= 256 "
                          "guest cycles";
                return p;
            }
        } else if ((value =
                        flagValue("--timeline", arg, argc, argv, i))) {
            if (!parsePath("--timeline", value, p.args.timeline,
                           p.error)) {
                return p;
            }
        } else if ((value =
                        flagValue("--profile", arg, argc, argv, i))) {
            if (!parsePath("--profile", value, p.args.profile, p.error))
                return p;
        } else {
            p.error = std::string("unknown argument '") + arg + "'";
            return p;
        }
    }
    return p;
}

BenchArgs
parseBenchArgs(int argc, char **argv, BenchDefaults defaults,
               const char *what_seeds)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    const BenchParse p = tryParseBenchArgs(argc, argv, defaults);
    if (p.help)
        usage(prog, defaults, what_seeds, 0);
    if (!p.ok()) {
        std::fprintf(stderr, "%s: %s\n", prog, p.error.c_str());
        usage(prog, defaults, what_seeds, 2);
    }
    return p.args;
}

} // namespace limit::analysis

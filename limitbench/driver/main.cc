/**
 * @file
 * limitbench: end-to-end benchmark of LiMiT++ regenerating its
 * published tables, on one host thread (see ../README.md).
 *
 *   limitbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--reference FILE] [--spans FILE]
 *   limitbench --workload NAME --seed N --digests
 *
 * The last stdout line of a measuring run is one JSON object with the
 * keys correct, attempted, failed and metrics. --digests prints the
 * per-job reference digests of one pass instead.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "measure.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "limitbench: %s\n"
                 "usage: limitbench --workload case-studies|spec-kernels "
                 "--seed N\n"
                 "                  (--seconds S --trace 0|1 "
                 "[--reference FILE] [--spans FILE] | --digests)\n",
                 why);
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace limitbench;

    RunOptions o;
    bool haveWorkload = false, haveSeed = false, digests = false;
    std::uint64_t secondsArg = 0;
    bool haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--digests") {
            digests = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const auto w = parseWorkload(value);
            if (!w)
                return usage(("unknown workload '" + value + "'").c_str());
            o.workload = *w;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, o.seed))
                return usage("--seed takes an integer in [0, 2^64)");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, secondsArg) || secondsArg > 3600)
                return usage("--seconds takes an integer in [0, 3600]");
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            o.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--reference") {
            o.referencePath = value;
        } else if (flag == "--spans") {
            o.spansPath = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload || !haveSeed)
        return usage("--workload and --seed are required");

    if (digests) {
        std::puts(digestLine(o.workload, o.seed).c_str());
        return 0;
    }
    if (!haveSeconds || !haveTrace)
        return usage("--seconds and --trace are required");
    o.seconds = static_cast<double>(secondsArg);

    References refs;
    if (!o.referencePath.empty()) {
        std::ifstream in(o.referencePath);
        if (!in)
            return usage(("cannot read " + o.referencePath).c_str());
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        if (!parseReferences(text.str(), refs, error)) {
            std::fprintf(stderr, "limitbench: %s: %s\n",
                         o.referencePath.c_str(), error.c_str());
            return 2;
        }
    }

    const RunSummary s = runBenchmark(o, refs, stdout);
    std::printf("%s\n", resultJson(s).c_str());
    return 0;
}

/**
 * @file
 * profdiff: diff two limitpp report JSON files (profile, sensitivity
 * or timeline schema) and gate on guest-metric regressions.
 *
 * Usage:
 *   profdiff [--gate PCT] [--out FILE] BASE[,BASE2,...] NEW[,NEW2,...]
 *
 * Each side is one or more report files (comma-separated, e.g. one
 * per seed); multiple files per side turn into min/max spread bands,
 * and only deltas whose bands do not overlap count against the gate.
 *
 * Exit codes: 0 = no gated regressions (a self-diff prints "No
 * deltas" and exits 0), 1 = at least one significant delta above
 * --gate, 2 = usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prof/profdiff.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--gate PCT] [--out FILE] "
                 "BASE[,BASE...] NEW[,NEW...]\n",
                 argv0);
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? arg.size() : comma;
        if (end > start)
            out.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double gate = 0.0;
    std::string outPath;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (arg == "--gate" || arg == "--out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "profdiff: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            const char *value = argv[++i];
            if (arg == "--gate") {
                char *end = nullptr;
                gate = std::strtod(value, &end);
                if (end == value || *end != '\0' || gate < 0) {
                    std::fprintf(stderr,
                                 "profdiff: --gate needs a"
                                 " non-negative percentage, got"
                                 " '%s'\n",
                                 value);
                    return 2;
                }
            } else {
                outPath = value;
            }
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "profdiff: unknown flag '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
        positional.push_back(arg);
    }
    if (positional.size() != 2)
        return usage(argv[0]);

    auto loadSide = [](const std::string &list,
                       std::vector<std::string> &docs) {
        for (const auto &path : splitList(list)) {
            std::string body;
            if (!readFile(path, body)) {
                std::fprintf(stderr,
                             "profdiff: cannot read '%s'\n",
                             path.c_str());
                return false;
            }
            docs.push_back(std::move(body));
        }
        if (docs.empty()) {
            std::fprintf(stderr, "profdiff: empty file list '%s'\n",
                         list.c_str());
            return false;
        }
        return true;
    };

    std::vector<std::string> baseDocs, freshDocs;
    if (!loadSide(positional[0], baseDocs) ||
        !loadSide(positional[1], freshDocs)) {
        return 2;
    }

    limit::prof::DiffResult diff;
    std::string error;
    if (!limit::prof::diffReports(baseDocs, freshDocs, diff, &error)) {
        std::fprintf(stderr, "profdiff: %s\n", error.c_str());
        return 2;
    }

    const std::string md = diff.markdown(gate);
    if (!outPath.empty()) {
        std::ofstream out(outPath, std::ios::binary);
        out << md;
        if (!out) {
            std::fprintf(stderr, "profdiff: cannot write '%s'\n",
                         outPath.c_str());
            return 2;
        }
    }
    std::fputs(md.c_str(), stdout);

    const std::size_t over = diff.exceeding(gate);
    if (over > 0) {
        std::fprintf(stderr,
                     "profdiff: %zu metric(s) regressed beyond the"
                     " %.2f%% gate\n",
                     over, gate);
        return 1;
    }
    return 0;
}

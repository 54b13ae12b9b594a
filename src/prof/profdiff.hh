/**
 * @file
 * Differential profiling: diff two `limitpp-profile-v1` /
 * `limitpp-sensitivity-v1` / `limitpp-timeline-v1` reports.
 *
 * Each side of the diff is one or more report JSON files (one per
 * seed); every numeric leaf is flattened to a dotted key — per
 * lock-class site, per kernel thread/syscall, per sensitivity
 * axis/level/metric (which carries the per-region `region.*` keys),
 * per timeline phase and per-event totals — then keys are compared
 * mean-to-mean with min/max spread bands across the side's files. A
 * delta is *significant* only when the two bands do not overlap, so
 * seed-level noise cannot trip the gate. `tools/profdiff` wraps this
 * in a CLI with markdown output and a `--gate pct` exit code.
 */

#ifndef LIMIT_PROF_PROFDIFF_HH
#define LIMIT_PROF_PROFDIFF_HH

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace limit::prof {

/** One compared metric (present on both sides). */
struct DiffEntry
{
    /** Dotted path, e.g. "sync.oltp.locks.orders:addr_256.acquisitions". */
    std::string key;
    /** Per-side mean and [min, max] spread band across seed files. */
    double base = 0, baseLo = 0, baseHi = 0;
    double fresh = 0, freshLo = 0, freshHi = 0;
    /** fresh - base (of the means). */
    double delta = 0;
    /** 100 * delta / |base|; +-inf is clamped to +-1e9 when base==0. */
    double deltaPct = 0;
    /** The spread bands do not overlap (always true for 1v1 diffs
     * with differing values: the bands collapse to points). */
    bool significant = false;
};

/** Result of diffing two report sets. */
struct DiffResult
{
    /** Differing keys, largest |deltaPct| first (ties: key order). */
    std::vector<DiffEntry> entries;
    /** Keys equal on both sides (count only; they carry no signal). */
    std::size_t identical = 0;
    /** Keys present on one side only. */
    std::vector<std::string> onlyBase;
    std::vector<std::string> onlyFresh;

    /** Significant entries with |deltaPct| above `gate_pct`. */
    std::size_t exceeding(double gate_pct) const;

    /** True when nothing differs at all (self-diff). */
    bool
    clean() const
    {
        return entries.empty() && onlyBase.empty() && onlyFresh.empty();
    }

    /**
     * Markdown report: summary line, then a table of differing keys
     * (gate violations marked), then side-only key lists.
     */
    std::string markdown(double gate_pct) const;
};

/**
 * Flatten one report JSON document into dotted-key numeric leaves.
 * Array elements are labeled by their identifying fields ("name",
 * "axis", "class", ... falling back to the index), histogram objects
 * collapse to count/sum/min/max, and timeline slice matrices collapse
 * to per-event machine and per-core totals (slice-level noise would
 * drown the table; the phase rows carry the shape). Returns false
 * with `*error` set on malformed JSON.
 */
bool flattenReportJson(std::string_view json,
                       std::map<std::string, double> &out,
                       std::string *error);

/**
 * Diff two sides, each a list of report JSON documents (not paths).
 * A key counts for a side when any of its files carries it; the mean
 * is over the files that do. Returns false with `*error` set when a
 * document fails to parse or a side is empty.
 */
bool diffReports(const std::vector<std::string> &base_jsons,
                 const std::vector<std::string> &fresh_jsons,
                 DiffResult &out, std::string *error);

} // namespace limit::prof

#endif // LIMIT_PROF_PROFDIFF_HH

/**
 * @file
 * Report: the profile-to-output pipeline.
 *
 * Benches feed per-run profiles (sync, kernel, sensitivity,
 * timeline) into a Report; it renders the machine-readable JSON
 * artifact (--profile-out), the aligned-ASCII tables
 * the benches print, and the markdown tables EXPERIMENTS.md embeds —
 * one aggregation path for all three, so the published numbers can
 * never drift from the profile data.
 *
 * Everything is deterministic: sections keep insertion order, maps
 * iterate sorted, and all statistics are exact integers (or ratios
 * thereof), so a rerun with the same seeds produces a byte-identical
 * JSON file.
 */

#ifndef LIMIT_PROF_REPORT_HH
#define LIMIT_PROF_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "prof/kernel_profile.hh"
#include "prof/sync_profile.hh"
#include "stats/table.hh"

namespace limit::prof {

/** Aggregates profiles and renders JSON / ASCII / markdown. */
class Report
{
  public:
    /** One named synchronization section (e.g. one application). */
    struct SyncSection
    {
        std::string name;
        SyncProfile profile;
        /** All-thread user+kernel cycles, summed over runs. */
        std::uint64_t totalCycles = 0;
        /** Txns / requests / events, summed over runs. */
        std::uint64_t workItems = 0;
        unsigned runs = 0;
    };

    /** One named kernel-interaction section. */
    struct KernelSection
    {
        std::string name;
        KernelProfile profile;
        /** PEC mode-filtered instruction totals (drift check). */
        std::uint64_t pecUserInstructions = 0;
        std::uint64_t pecKernelInstructions = 0;
        unsigned runs = 0;
    };

    /**
     * One scenario's ranked sensitivity analysis: how a work metric
     * responds to perturbing each machine-configuration axis, ranked
     * most-sensitive-first (produced by analysis::sensitivity).
     */
    struct SensitivitySection
    {
        /** One measured lattice point along one axis. */
        struct Level
        {
            /** Axis parameter value at this point. */
            double param = 0;
            /** Work metric at this point (seed-averaged). */
            double work = 0;
            /** 100 * (work - baseline) / baseline. */
            double workRelPct = 0;
            /** (Δwork/work0) / (Δparam/param0). */
            double elasticity = 0;
            /** Secondary metrics (miss rates, IPC, ...), sorted. */
            std::map<std::string, double> metrics;
        };

        /** One configuration axis with its measured levels. */
        struct AxisResult
        {
            std::string axis;
            std::string unit;
            /** Axis parameter value at the baseline machine. */
            double baseParam = 0;
            /** Ranking key: max |workRelPct| over the levels. */
            double score = 0;
            std::vector<Level> levels;
        };

        std::string name;
        /** What `work` measures (e.g. "iterations", "txns"). */
        std::string workMetric;
        double baselineWork = 0;
        std::map<std::string, double> baselineMetrics;
        /** Ranked most-sensitive-first; ties keep insertion order. */
        std::vector<AxisResult> axes;
    };

    /**
     * One run's exact guest-cycle timeline: per-core PMU event
     * deltas per fixed interval, plus the phase segmentation the
     * change-point detector derived from them (produced by
     * prof::buildTimeline from a sim::TimelineRecorder).
     */
    struct TimelineSection
    {
        /** One detected phase: a run of consecutive slices. */
        struct Phase
        {
            std::uint64_t firstSlice = 0;
            std::uint64_t numSlices = 0;
            /** Machine-wide instructions per cycle over the phase. */
            double ipc = 0;
            /** Highest-rate architectural event (see buildTimeline). */
            std::string dominant;
            /** Mean per-cycle event rates, keyed by event name. */
            std::map<std::string, double> rates;
        };

        std::string name;
        std::uint64_t intervalTicks = 0;
        /** cores[core][slice]: exact event deltas for that interval. */
        std::vector<std::vector<sim::EventDeltas>> cores;
        std::vector<Phase> phases;
    };

    /**
     * Override the "schema" tag in the JSON artifact (default
     * "limitpp-profile-v1"; the sensitivity engine stamps
     * "limitpp-sensitivity-v1").
     */
    void schema(const std::string &schema_tag);

    /** Free-form run metadata, emitted under "meta". */
    void meta(const std::string &key, const std::string &value);
    void meta(const std::string &key, std::uint64_t value);
    void meta(const std::string &key, double value);

    /**
     * Add one run's synchronization profile under `name`; repeated
     * adds with the same name merge (multi-seed aggregation).
     */
    void addSync(const std::string &name, const SyncProfile &profile,
                 std::uint64_t total_cycles, std::uint64_t work_items);

    /** Add one run's kernel profile under `name`; same-name merges. */
    void addKernel(const std::string &name, const KernelProfile &profile,
                   std::uint64_t pec_user_instructions,
                   std::uint64_t pec_kernel_instructions);

    /** Attach one scenario's ranked sensitivity analysis. */
    void addSensitivity(const SensitivitySection &section);

    /** Attach one run's exact interval timeline. */
    void addTimeline(const TimelineSection &section);

    const SyncSection *sync(const std::string &name) const;
    const std::vector<SyncSection> &syncSections() const
    {
        return sync_;
    }
    const std::vector<KernelSection> &kernelSections() const
    {
        return kernel_;
    }
    const std::vector<SensitivitySection> &sensitivitySections() const
    {
        return sensitivity_;
    }
    const std::vector<TimelineSection> &timelineSections() const
    {
        return timeline_;
    }

    /** @name Rendering @{ */

    /** E5a-style per-application summary. */
    stats::Table syncSummaryTable(const std::string &title) const;

    /** E5b-style per-lock-class × call-site detail. */
    stats::Table syncDetailTable(const std::string &title) const;

    /** E7-style kernel/user breakdown with ledger drift. */
    stats::Table kernelTable(const std::string &title) const;

    /** E15-style ranked axis × level sensitivity detail. */
    stats::Table sensitivityTable(const std::string &title) const;

    /** The markdown table EXPERIMENTS.md embeds for E5. */
    std::string syncSummaryMarkdown() const;

    /**
     * The markdown table EXPERIMENTS.md embeds for E7, rows sorted
     * by kernel share descending (the published presentation).
     */
    std::string kernelMarkdown() const;

    /** The markdown ranking table EXPERIMENTS.md embeds for E15. */
    std::string sensitivityMarkdown() const;

    /**
     * Per-core ASCII heatmap (rows = cores, columns = slices,
     * intensity = instruction rate), a machine-wide IPC sparkline,
     * and the phase table — the terminal view `--timeline` prints.
     */
    std::string timelineAscii() const;

    /** The whole report as deterministic JSON. */
    std::string toJson() const;

    /** Write toJson() to `path`; false on I/O failure. */
    bool writeJson(const std::string &path) const;
    /** @} */

  private:
    SyncSection &syncSection(const std::string &name);
    KernelSection &kernelSection(const std::string &name);

    std::string schema_ = "limitpp-profile-v1";
    std::map<std::string, std::string> meta_;
    std::vector<SyncSection> sync_;
    std::vector<KernelSection> kernel_;
    std::vector<SensitivitySection> sensitivity_;
    std::vector<TimelineSection> timeline_;
};

} // namespace limit::prof

#endif // LIMIT_PROF_REPORT_HH

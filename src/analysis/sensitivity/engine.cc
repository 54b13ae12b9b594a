#include "analysis/sensitivity/engine.hh"

#include <algorithm>
#include <cmath>

#include "analysis/runner.hh"
#include "base/logging.hh"
#include "mem/hierarchy.hh"

namespace limit::analysis::sensitivity {

namespace {

/** Seed-average a contiguous block of per-run measurements. */
Measurement
average(const std::vector<Measurement> &runs, std::size_t first,
        unsigned seeds)
{
    Measurement avg;
    for (unsigned s = 0; s < seeds; ++s) {
        const Measurement &m = runs[first + s];
        avg.work += m.work;
        for (const auto &[k, v] : m.metrics)
            avg.metrics[k] += v;
    }
    avg.work /= seeds;
    for (auto &[k, v] : avg.metrics)
        v /= seeds;
    return avg;
}

} // namespace

prof::Report::SensitivitySection
analyze(const ParamSpace &space, const WorkloadFn &workload,
        const Options &options)
{
    fatal_if(!workload, "sensitivity::analyze: null workload");
    fatal_if(space.axes().empty(),
             "sensitivity::analyze: ParamSpace has no axes");
    const unsigned seeds = std::max(1u, options.seeds);
    const std::vector<ParamSpace::Point> points = space.points();

    // One flat job fan: (baseline then every lattice point) × seeds,
    // in a fixed submission order. The runner returns results in that
    // same order regardless of worker count, which is the entire
    // determinism story — everything below is pure arithmetic on the
    // ordered result vector.
    const std::size_t jobs = (1 + points.size()) * seeds;
    const std::vector<Measurement> runs =
        ParallelRunner(options.jobs).map(jobs, [&](std::size_t i) {
            const std::size_t point = i / seeds;
            const std::uint64_t seed = 1 + (i % seeds);
            const BundleOptions &o = point == 0
                ? space.base()
                : points[point - 1].options;
            return workload(o, seed);
        });

    prof::Report::SensitivitySection section;
    section.name = options.scenario;
    section.workMetric = options.workMetric;
    const Measurement base = average(runs, 0, seeds);
    section.baselineWork = base.work;
    section.baselineMetrics = base.metrics;

    // Group the point measurements back onto their axes (points() is
    // ordered axis-major, so this walk is sequential).
    std::vector<prof::Report::SensitivitySection::AxisResult> axes;
    for (std::size_t a = 0; a < space.axes().size(); ++a) {
        const Axis &axis = space.axes()[a];
        prof::Report::SensitivitySection::AxisResult r;
        r.axis = axis.name;
        r.unit = axis.unit;
        r.baseParam = axis.read(space.base());
        axes.push_back(std::move(r));
    }
    for (std::size_t p = 0; p < points.size(); ++p) {
        const ParamSpace::Point &pt = points[p];
        const Measurement m = average(runs, (1 + p) * seeds, seeds);
        prof::Report::SensitivitySection::Level level;
        level.param = pt.value;
        level.work = m.work;
        level.metrics = m.metrics;
        if (base.work != 0) {
            level.workRelPct =
                100.0 * (m.work - base.work) / base.work;
            const double base_param = axes[pt.axisIndex].baseParam;
            const double d_param = pt.value - base_param;
            if (base_param != 0 && d_param != 0) {
                level.elasticity = ((m.work - base.work) / base.work) /
                    (d_param / base_param);
            }
        }
        prof::Report::SensitivitySection::AxisResult &r =
            axes[pt.axisIndex];
        r.score = std::max(r.score, std::abs(level.workRelPct));
        r.levels.push_back(std::move(level));
    }

    // Rank most-sensitive-first; stable, so equal scores keep the
    // caller's axis insertion order.
    std::stable_sort(axes.begin(), axes.end(),
                     [](const auto &x, const auto &y) {
                         return x.score > y.score;
                     });
    section.axes = std::move(axes);
    return section;
}

void
analyzeInto(prof::Report &report, const ParamSpace &space,
            const WorkloadFn &workload, const Options &options)
{
    report.schema("limitpp-sensitivity-v1");
    const prof::Report::SensitivitySection section =
        analyze(space, workload, options);

    const std::string prefix = options.scenario + ".";
    report.meta(prefix + "seeds",
                static_cast<std::uint64_t>(std::max(1u, options.seeds)));
    report.meta(prefix + "axes",
                static_cast<std::uint64_t>(space.axes().size()));
    std::size_t lattice = 0;
    for (const Axis &a : space.axes())
        lattice += a.levels.size();
    report.meta(prefix + "lattice_points",
                static_cast<std::uint64_t>(lattice));
    // Stamp the exact base machine so the artifact is self-describing.
    const BundleOptions &base = space.base();
    report.meta(prefix + "base.cores",
                static_cast<std::uint64_t>(base.cores));
    report.meta(prefix + "base.pmu_counters",
                static_cast<std::uint64_t>(base.pmuCounters));
    report.meta(prefix + "base.pmu_width",
                static_cast<std::uint64_t>(base.pmuFeatures.counterWidth));
    report.meta(prefix + "base.quantum",
                static_cast<std::uint64_t>(base.quantum));
    if (base.useCaches) {
        for (const auto &[field, value] : mem::configFields(base.hierarchy))
            report.meta(prefix + "base." + field, value);
    } else {
        report.meta(prefix + "base.memory", "flat");
    }

    report.addSensitivity(section);
}

} // namespace limit::analysis::sensitivity

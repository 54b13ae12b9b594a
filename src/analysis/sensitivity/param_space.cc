#include "analysis/sensitivity/param_space.hh"

namespace limit::analysis::sensitivity {

namespace {

/** Shorthand for building one of the standard axes. */
Axis
makeAxis(const char *name, const char *unit,
         double (*read)(const BundleOptions &),
         void (*apply)(BundleOptions::Builder &, double),
         std::vector<double> levels)
{
    Axis a;
    a.name = name;
    a.unit = unit;
    a.read = read;
    a.apply = apply;
    a.levels = std::move(levels);
    return a;
}

} // namespace

Axis
Axis::l1Size(std::vector<double> levels)
{
    return makeAxis(
        "l1_size", "bytes",
        [](const BundleOptions &o) {
            return static_cast<double>(o.hierarchy.l1d.sizeBytes);
        },
        [](BundleOptions::Builder &b, double v) {
            b.l1Size(static_cast<std::uint64_t>(v));
        },
        std::move(levels));
}

Axis
Axis::l1Latency(std::vector<double> levels)
{
    return makeAxis(
        "l1_latency", "cycles",
        [](const BundleOptions &o) {
            return static_cast<double>(o.hierarchy.l1Latency);
        },
        [](BundleOptions::Builder &b, double v) {
            b.l1Latency(static_cast<sim::Tick>(v));
        },
        std::move(levels));
}

Axis
Axis::l2Latency(std::vector<double> levels)
{
    return makeAxis(
        "l2_latency", "cycles",
        [](const BundleOptions &o) {
            return static_cast<double>(o.hierarchy.l2Latency);
        },
        [](BundleOptions::Builder &b, double v) {
            b.l2Latency(static_cast<sim::Tick>(v));
        },
        std::move(levels));
}

Axis
Axis::memLatency(std::vector<double> levels)
{
    return makeAxis(
        "mem_latency", "cycles",
        [](const BundleOptions &o) {
            return static_cast<double>(o.hierarchy.memLatency);
        },
        [](BundleOptions::Builder &b, double v) {
            b.memLatency(static_cast<sim::Tick>(v));
        },
        std::move(levels));
}

Axis
Axis::tlbEntries(std::vector<double> levels)
{
    return makeAxis(
        "tlb_entries", "entries",
        [](const BundleOptions &o) {
            return static_cast<double>(o.hierarchy.dtlb.entries);
        },
        [](BundleOptions::Builder &b, double v) {
            b.tlbEntries(static_cast<unsigned>(v));
        },
        std::move(levels));
}

Axis
Axis::counterWidth(std::vector<double> levels)
{
    return makeAxis(
        "pmu_width", "bits",
        [](const BundleOptions &o) {
            return static_cast<double>(o.pmuFeatures.counterWidth);
        },
        [](BundleOptions::Builder &b, double v) {
            b.pmuWidth(static_cast<unsigned>(v));
        },
        std::move(levels));
}

Axis
Axis::quantum(std::vector<double> levels)
{
    return makeAxis(
        "quantum", "ticks",
        [](const BundleOptions &o) {
            return static_cast<double>(o.quantum);
        },
        [](BundleOptions::Builder &b, double v) {
            b.quantum(static_cast<sim::Tick>(v));
        },
        std::move(levels));
}

Axis
Axis::cores(std::vector<double> levels)
{
    return makeAxis(
        "cores", "cores",
        [](const BundleOptions &o) {
            return static_cast<double>(o.cores);
        },
        [](BundleOptions::Builder &b, double v) {
            b.cores(static_cast<unsigned>(v));
        },
        std::move(levels));
}

std::vector<ParamSpace::Point>
ParamSpace::points() const
{
    std::vector<Point> out;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
        const Axis &axis = axes_[a];
        for (std::size_t l = 0; l < axis.levels.size(); ++l) {
            BundleOptions::Builder b =
                BundleOptions::Builder::from(base_);
            axis.apply(b, axis.levels[l]);
            out.push_back(Point{a, l, axis.levels[l], b.build()});
        }
    }
    return out;
}

} // namespace limit::analysis::sensitivity

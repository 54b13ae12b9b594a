/**
 * @file
 * Tests for the sensitivity engine: ParamSpace OAT expansion through
 * the validating builder, derivative/ranking arithmetic on a
 * synthetic workload, determinism across runner fan-out, and
 * execution-mode invariance on a real simulated lattice.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/bundle.hh"
#include "analysis/sensitivity/engine.hh"
#include "analysis/sensitivity/param_space.hh"
#include "mem/hierarchy.hh"
#include "prof/report.hh"

namespace limit {
namespace {

using analysis::BundleOptions;
using analysis::sensitivity::Axis;
using analysis::sensitivity::Measurement;
using analysis::sensitivity::ParamSpace;

TEST(ParamSpace, ExpandsOneFactorAtATimeInOrder)
{
    ParamSpace space(BundleOptions::builder().cores(2).build());
    space.add(Axis::l1Size({16 * 1024, 64 * 1024}))
        .add(Axis::memLatency({440}));

    const auto points = space.points();
    ASSERT_EQ(points.size(), 3u);

    // Axis-major, levels in declaration order.
    EXPECT_EQ(points[0].axisIndex, 0u);
    EXPECT_EQ(points[0].levelIndex, 0u);
    EXPECT_EQ(points[0].options.hierarchy.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(points[1].options.hierarchy.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(points[2].axisIndex, 1u);
    EXPECT_EQ(points[2].options.hierarchy.memLatency, 440u);

    // Each point perturbs exactly its own axis: the L1 points keep
    // the base memory latency and vice versa.
    EXPECT_EQ(points[0].options.hierarchy.memLatency,
              space.base().hierarchy.memLatency);
    EXPECT_EQ(points[2].options.hierarchy.l1d.sizeBytes,
              space.base().hierarchy.l1d.sizeBytes);
    // And base fields unrelated to any axis carry over everywhere.
    for (const auto &p : points)
        EXPECT_EQ(p.options.cores, 2u);

    // Axis read() reports the base value the derivatives divide by.
    EXPECT_DOUBLE_EQ(space.axes()[0].read(space.base()),
                     32.0 * 1024);
}

TEST(ParamSpaceDeathTest, RejectsOutOfRangeLevelsAtExpansion)
{
    // The lattice goes through the same build()-time validation as
    // hand-written configurations; a bad level dies with the field
    // name, not deep inside machine construction.
    ParamSpace bad_geometry(BundleOptions::builder().build());
    bad_geometry.add(Axis::l1Size({3000}));
    EXPECT_DEATH(bad_geometry.points(), "l1d");

    ParamSpace bad_width(BundleOptions::builder().build());
    bad_width.add(Axis::counterWidth({4}));
    EXPECT_DEATH(bad_width.points(), "pmuWidth must be in");

    ParamSpace bad_tlb(BundleOptions::builder().build());
    bad_tlb.add(Axis::tlbEntries({0}));
    EXPECT_DEATH(bad_tlb.points(), "tlbEntries");
}

TEST(HierarchyIntrospection, EnumeratesEveryConfigField)
{
    mem::HierarchyConfig cfg;
    cfg.l1d.sizeBytes = 16 * 1024;
    cfg.memLatency = 300;
    cfg.nextLinePrefetch = true;
    const auto fields = mem::configFields(cfg);
    ASSERT_EQ(fields.size(), 19u);
    auto value = [&](const std::string &name) -> std::uint64_t {
        for (const auto &[k, v] : fields) {
            if (name == k)
                return v;
        }
        ADD_FAILURE() << "missing field " << name;
        return 0;
    };
    EXPECT_EQ(value("l1d_size_bytes"), 16u * 1024);
    EXPECT_EQ(value("mem_latency"), 300u);
    EXPECT_EQ(value("next_line_prefetch"), 1u);
    EXPECT_EQ(value("l2_size_bytes"), 256u * 1024);
    EXPECT_EQ(value("dtlb_entries"), 64u);
}

/**
 * Synthetic workload with a closed-form response: work shrinks
 * linearly as L1 shrinks below 32 KiB (strong axis) and grows weakly
 * with TLB reach (weak axis). Lets the test pin the derivative and
 * ranking arithmetic exactly, independent of the simulator.
 */
Measurement
syntheticWorkload(const BundleOptions &o, std::uint64_t seed)
{
    (void)seed;
    Measurement m;
    const double l1 = static_cast<double>(o.hierarchy.l1d.sizeBytes);
    const double tlb = static_cast<double>(o.hierarchy.dtlb.entries);
    m.work = 1000.0 * (l1 / (32.0 * 1024)) + tlb;
    m.metrics["l1_term"] = 1000.0 * (l1 / (32.0 * 1024));
    return m;
}

TEST(SensitivityEngine, RanksTheStrongAxisFirstWithExactDerivatives)
{
    ParamSpace space(BundleOptions::builder().build());
    space.add(Axis::tlbEntries({128}))  // weak axis added FIRST
        .add(Axis::l1Size({16 * 1024}));  // strong axis second

    analysis::sensitivity::Options opts;
    opts.scenario = "synthetic";
    opts.workMetric = "units";
    const auto section =
        analysis::sensitivity::analyze(space, syntheticWorkload, opts);

    // baseline: 1000 + 64 = 1064.
    EXPECT_DOUBLE_EQ(section.baselineWork, 1064.0);
    EXPECT_EQ(section.name, "synthetic");
    EXPECT_EQ(section.workMetric, "units");

    // Ranking flips the insertion order: halving L1 loses 500 units
    // (|Δ| = 47.0%), doubling TLB reach gains 64 (6.0%).
    ASSERT_EQ(section.axes.size(), 2u);
    EXPECT_EQ(section.axes[0].axis, "l1_size");
    EXPECT_EQ(section.axes[1].axis, "tlb_entries");

    const auto &l1 = section.axes[0];
    ASSERT_EQ(l1.levels.size(), 1u);
    EXPECT_DOUBLE_EQ(l1.baseParam, 32.0 * 1024);
    EXPECT_DOUBLE_EQ(l1.levels[0].work, 564.0);
    EXPECT_DOUBLE_EQ(l1.levels[0].workRelPct,
                     100.0 * (564.0 - 1064.0) / 1064.0);
    // elasticity = (Δwork/work0) / (Δparam/param0)
    //            = (-500/1064) / (-0.5) = 1000/1064.
    EXPECT_DOUBLE_EQ(l1.levels[0].elasticity, 1000.0 / 1064.0);
    EXPECT_DOUBLE_EQ(l1.score, std::abs(l1.levels[0].workRelPct));

    // Secondary metrics ride along per level.
    EXPECT_DOUBLE_EQ(l1.levels[0].metrics.at("l1_term"), 500.0);
}

TEST(SensitivityEngine, ReportIsBitIdenticalAcrossJobCounts)
{
    auto run = [](unsigned jobs) {
        ParamSpace space(BundleOptions::builder().build());
        space.add(Axis::l1Size({8 * 1024, 16 * 1024, 64 * 1024}))
            .add(Axis::tlbEntries({16, 128}))
            .add(Axis::memLatency({110, 440}));
        analysis::sensitivity::Options opts;
        opts.scenario = "synthetic";
        opts.workMetric = "units";
        opts.seeds = 3;
        opts.jobs = jobs;
        prof::Report report;
        analysis::sensitivity::analyzeInto(report, space,
                                           syntheticWorkload, opts);
        return report.toJson();
    };
    const std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(3));
    // The stamped schema is the sensitivity one.
    EXPECT_NE(serial.find("\"schema\": \"limitpp-sensitivity-v1\""),
              std::string::npos);
    // The base machine is embedded via mem::configFields.
    EXPECT_NE(serial.find("\"synthetic.base.l1d_size_bytes\": \"32768\""),
              std::string::npos);
}

/**
 * Real-simulation lattice: a short declared compute/load loop measured
 * across a tiny L1-size axis must produce identical measurements
 * whichever execution mode runs it (batched, replaying the loop, or
 * the per-op reference loop) — the engine inherits the simulator's
 * determinism contract. Each load of the 32 KiB sweep touches a new
 * line, so batched runs retire every load as a full access inside the
 * replay.
 */
Measurement
simWorkload(const BundleOptions &base, std::uint64_t seed)
{
    analysis::SimBundle b(
        BundleOptions::Builder::from(base).seed(seed).build());
    std::uint64_t iters = 0;
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 3}});
        while (!g.shouldStop()) {
            co_await g.load(0x4000 + (iters % 512) * 64);
            co_await g.compute(3);
            ++iters;
        }
        co_return;
    });
    b.run(200'000);
    Measurement m;
    m.work = static_cast<double>(iters);
    m.metrics["l1d_misses"] = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::L1DMiss));
    return m;
}

TEST(SensitivityEngine, SimLatticeInvariantAcrossExecutionModes)
{
    auto run = [](bool batched) {
        ParamSpace space(ParamSpace(
            BundleOptions::builder()
                .cores(1)
                .l1Size(4 * 1024)
                .batched(batched)
                .build()));
        space.add(Axis::l1Size({64 * 1024}))
            .add(Axis::l1Latency({8}));
        analysis::sensitivity::Options opts;
        opts.scenario = "sim";
        opts.workMetric = "iters";
        opts.seeds = 2;
        opts.jobs = 2;
        prof::Report report;
        analysis::sensitivity::analyzeInto(report, space, simWorkload,
                                           opts);
        return report.toJson();
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace limit

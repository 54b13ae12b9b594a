/**
 * @file
 * E4 — Precision: sampling vs. precise counting on short segments.
 *
 * A thread alternates between a target region of L instructions and a
 * filler phase, for L swept across 3.5 decades. The target region's
 * instruction count is estimated (a) by overflow sampling at two
 * periods and (b) by PEC precise region measurement, then compared
 * to the analytically known ground truth. Expected shape (paper):
 * sampling error explodes once L falls below the sampling period —
 * short segments are unmeasurable — while precise counting stays
 * within a fraction of a percent at every L.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "analysis/profile_report.hh"
#include "analysis/runner.hh"
#include "analysis/trace_report.hh"
#include "baseline/sampler.hh"
#include "pec/pec.hh"
#include "stats/table.hh"

namespace {

using namespace limit;

constexpr unsigned iterations = 400;
constexpr std::uint64_t fillerInstrs = 20'000;

/** Jittered filler defeats sampling/workload phase aliasing. */
std::uint64_t
fillerFor(Rng &rng)
{
    // Jitter on the order of the largest sampling period under test.
    return fillerInstrs + rng.below(60'000);
}

/** No branches: instruction counts are exact. */
sim::ComputeProfile
straight()
{
    sim::ComputeProfile p;
    p.branchFrac = 0;
    p.mispredictRate = 0;
    return p;
}

/** Run the workload once; measure the region with one method. */
double
runSampled(std::uint64_t segment, std::uint64_t period,
           std::uint64_t seed,
           const analysis::BenchArgs *trace = nullptr)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(1)
            .pmuWidth(30)
            .seed(seed)
            .traceCapacity(trace ? trace->captureCap() : 0)
            .timelineInterval(
                trace ? trace->captureTimelineInterval() : 0)
            .build());
    baseline::SamplingProfiler prof(b.kernel(), 0,
                                    sim::EventType::Instructions,
                                    period);
    const auto region = b.machine().regions().intern("target");
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        for (unsigned i = 0; i < iterations; ++i) {
            co_await g.regionEnter(region);
            co_await g.compute(segment, straight());
            co_await g.regionExit();
            co_await g.compute(fillerFor(g.rng()), straight());
        }
        co_return;
    });
    b.machine().run();
    prof.aggregate();
    if (trace)
        analysis::writeStandardArtifacts(b, *trace, "bench_e04_sampling_accuracy");
    return prof.estimate(region);
}

double
runPec(std::uint64_t segment)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Instructions);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(session, rc);
    const auto region = b.machine().regions().intern("target");
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        co_await prof.calibrate(g);
        for (unsigned i = 0; i < iterations; ++i) {
            co_await prof.enter(g, region);
            co_await g.compute(segment, straight());
            co_await prof.exit(g, region);
            co_await g.compute(fillerFor(g.rng()), straight());
        }
        co_return;
    });
    b.machine().run();
    return static_cast<double>(prof.stats(region).totals[0]);
}

double
relErrPct(double est, double truth)
{
    return 100.0 * std::fabs(est - truth) / truth;
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    const auto args = limit::analysis::parseBenchArgs(
        argc, argv, {.seeds = 8, .jobs = 1},
        "sampling seeds averaged per segment length");
    const unsigned seeds = args.seeds;

    Table t("E4: target-segment instruction estimate error vs segment "
            "length (400 visits each)");
    t.header({"segment len", "truth", "pec est", "pec err%",
              "sample@4k err%", "sample@64k err%"});

    const std::vector<std::uint64_t> lengths = {
        100, 300, 1000, 3000, 10'000, 30'000, 100'000};

    // One job per (L, method, seed) estimate; the whole sweep fans
    // out at once and the table is assembled from the flat results.
    struct Job
    {
        std::uint64_t L;
        std::uint64_t period; // 0 = PEC precise measurement
        std::uint64_t seed;
    };
    std::vector<Job> jobs;
    for (std::uint64_t L : lengths) {
        jobs.push_back({L, 0, 0});
        for (unsigned s = 0; s < seeds; ++s)
            jobs.push_back({L, 4'000, 11 + s});
        for (unsigned s = 0; s < seeds; ++s)
            jobs.push_back({L, 64'000, 11 + s});
    }
    limit::analysis::ParallelRunner pool(args.jobs);
    const std::vector<double> estimates = pool.map(
        jobs.size(), [&](std::size_t i) {
            const Job &j = jobs[i];
            return j.period == 0 ? runPec(j.L)
                                 : runSampled(j.L, j.period, j.seed);
        });

    std::size_t cursor = 0;
    for (std::uint64_t L : lengths) {
        const double truth = static_cast<double>(L) * iterations;
        const double pec = estimates[cursor++];
        double fine_err = 0, coarse_err = 0;
        for (unsigned s = 0; s < seeds; ++s)
            fine_err += relErrPct(estimates[cursor++], truth);
        for (unsigned s = 0; s < seeds; ++s)
            coarse_err += relErrPct(estimates[cursor++], truth);
        t.beginRow()
            .cell(L)
            .cell(truth, 0)
            .cell(pec, 0)
            .cell(relErrPct(pec, truth), 3)
            .cell(fine_err / seeds, 1)
            .cell(coarse_err / seeds, 1);
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nShape check: precise counting holds sub-percent error "
              "at every length; sampling error grows without bound as "
              "segments shrink below the sampling period (short\n"
              "segments are effectively invisible), matching the "
              "paper's precision argument.");

    // The exact table EXPERIMENTS.md embeds — regenerate by pasting.
    std::puts("\nEXPERIMENTS.md (E4) markdown:");
    std::fputs(t.renderMarkdown().c_str(), stdout);

    // Dedicated traced re-run of one sampling point — the timeline
    // shows the sampling PMIs landing against the region boundaries.
    if (args.instrumented())
        runSampled(1000, 4'000, 11, &args);
    return 0;
}

/**
 * @file
 * E6 — Critical-section length distributions (paper figure).
 *
 * Exact log-bucketed histograms of lock-held and lock-acquire
 * durations per application, measurable only because every single
 * acquisition is counted precisely. The histograms come straight out
 * of prof::SyncProfile (the same data --profile serializes), rendered
 * regrouped per power of two. Expected shape: distributions peak at
 * short durations (2^7..2^12 cycles) with a thin long tail.
 */

#include <cstdio>
#include <vector>

#include "analysis/args.hh"
#include "analysis/runner.hh"
#include "prof/report.hh"
#include "sync_common.hh"

int
main(int argc, char **argv)
{
    using namespace limit;
    using benchsync::runApp;

    constexpr sim::Tick ticks = 40'000'000;

    const auto args = analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "workload seeds; each seed prints its own histogram section");

    const auto &apps = benchsync::appNames();
    analysis::ParallelRunner pool(args.jobs);
    const std::vector<benchsync::SyncRunResult> runs = pool.map(
        apps.size() * args.seeds, [&](std::size_t i) {
            return runApp(apps[i / args.seeds], ticks, i % args.seeds,
                          args);
        });

    prof::Report report;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        if (args.seeds > 1)
            std::printf("=== %s (seed %zu) ===\n", r.app.c_str(),
                        i % args.seeds);
        else
            std::printf("=== %s ===\n", r.app.c_str());
        report.addSync(r.app, r.sync, r.totalCycles, r.workItems);
        for (const std::string &lock : r.sync.classNames()) {
            const prof::SyncSiteStats s = r.sync.classStats(lock);
            std::printf("\n[%s] critical-section length (cycles held), "
                        "%llu acquisitions:\n",
                        lock.c_str(),
                        static_cast<unsigned long long>(
                            s.holdCycles.totalCount()));
            std::fputs(s.holdCycles.renderLog2(44).c_str(), stdout);
            std::printf(
                "mean %.0f  p50 %llu  p95 %llu  p99 %llu\n",
                s.holdCycles.mean(),
                static_cast<unsigned long long>(
                    s.holdCycles.quantile(0.5)),
                static_cast<unsigned long long>(
                    s.holdCycles.quantile(0.95)),
                static_cast<unsigned long long>(
                    s.holdCycles.quantile(0.99)));

            std::printf("\n[%s] acquisition cost (cycles):\n",
                        lock.c_str());
            std::fputs(s.waitCycles.renderLog2(44).c_str(), stdout);
        }
        std::puts("");
    }
    if (args.instrumented())
        runApp(apps[0], ticks, 0, args, &report, "bench_e06_cs_histogram");

    std::puts("Shape check: every distribution peaks at short "
              "durations (2^7..2^12 cycles) with a thin long tail "
              "(contended futex sleeps) — many short critical\n"
              "sections, invisible to sampling, dominate "
              "synchronization behaviour.");
    return 0;
}

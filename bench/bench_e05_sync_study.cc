/**
 * @file
 * E5 — Synchronization case study (the paper's MySQL/Apache/Firefox
 * study): exact cycles spent acquiring locks and holding them, per
 * lock class and acquire call site, measured with dense PEC
 * instrumentation that syscall methods could not afford (see E3).
 *
 * Expected shape: every app spends a modest single-digit share of
 * cycles on synchronization, dominated by *frequent, short* critical
 * sections rather than long ones.
 */

#include <cstdio>
#include <vector>

#include "analysis/args.hh"
#include "analysis/profile_report.hh"
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
        "workload seeds averaged in the summary table");

    // One job per (app, seed); runs merge into the Report in
    // submission order, so the output is identical for any --jobs.
    const auto &apps = benchsync::appNames();
    analysis::ParallelRunner pool(args.jobs);
    const std::vector<benchsync::SyncRunResult> runs = pool.map(
        apps.size() * args.seeds, [&](std::size_t i) {
            return runApp(apps[i / args.seeds], ticks, i % args.seeds,
                          nullptr, &args);
        });

    prof::Report report;
    for (const auto &r : runs)
        report.addSync(r.app, r.sync, r.totalCycles, r.workItems);

    std::fputs(report
                   .syncSummaryTable(
                       "E5a: per-application synchronization summary "
                       "(40M-cycle run, 4 cores)")
                   .render()
                   .c_str(),
               stdout);
    std::puts("");
    std::fputs(
        report
            .syncDetailTable(
                "E5b: per-lock-class / per-call-site detail")
            .render()
            .c_str(),
        stdout);

    for (const auto &s : report.syncSections()) {
        const prof::SyncProfile::Chain chain =
            s.profile.longestWaiterChain();
        if (chain.tids.size() < 2)
            continue;
        std::printf("\n%s longest waiter chain (%llu wait cycles): ",
                    s.name.c_str(),
                    static_cast<unsigned long long>(chain.waitCycles));
        for (std::size_t i = 0; i < chain.tids.size(); ++i)
            std::printf("%st%u", i ? " -> " : "", chain.tids[i]);
        std::puts("");
    }

    // One extra dedicated run with the tracer attached (and counters
    // narrow enough to wrap, so overflow PMIs show up in the
    // timeline); tables above stay bit-identical to untraced runs.
    if (args.tracing() || args.timelineOn()) {
        benchsync::TraceSpec tspec;
        tspec.path = args.trace;
        tspec.capacity = args.traceCap;
        runApp(apps[0], ticks, 0, args.tracing() ? &tspec : nullptr,
               &args, "bench_e05_sync_study");
    }
    analysis::writeProfile(report, args, "bench_e05_sync_study");

    // The exact table EXPERIMENTS.md embeds — regenerate by pasting.
    std::puts("\nEXPERIMENTS.md (E5) markdown:");
    std::fputs(report.syncSummaryMarkdown().c_str(), stdout);

    std::puts("\nShape check: synchronization is a modest share of "
              "total cycles in every app, and mean critical sections "
              "are short (hundreds to a few thousand cycles) —\n"
              "lock *acquisition* cost is comparable to hold time, the "
              "paper's argument that architects should optimize "
              "acquisition, not just contention.");
    return 0;
}

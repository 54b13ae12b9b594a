/**
 * @file
 * Scenario: the paper's MySQL synchronization case study.
 *
 * Runs the OLTP engine (the MySQL analogue) with every row-lock and
 * WAL-lock acquisition instrumented by precise counter reads — ~10k
 * lock events, each measured individually, at a total overhead no
 * syscall-based method could afford (see bench_e03) — and prints the
 * lock-behaviour tables and distributions the paper derives.
 *
 *   $ build/examples/mysql_lock_study
 */

#include <cstdio>

#include "analysis/bundle.hh"
#include "pec/pec.hh"
#include "stats/table.hh"
#include "workloads/oltp.hh"

using namespace limit;

int
main()
{
    analysis::SimBundle bundle(
        analysis::BundleOptions::builder().build());

    // Cycle-precise lock instrumentation (user+kernel cycles so futex
    // sleeps' kernel path is included in acquisition cost).
    pec::PecSession session(bundle.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler profiler(session, rc);
    bundle.kernel().spawn("calibrate",
                          [&](sim::Guest &g) -> sim::Task<void> {
                              co_await profiler.calibrate(g);
                          });

    workloads::OltpConfig cfg;
    cfg.clients = 8;
    cfg.readRatio = 0.4; // write-heavy: the locking is the story
    workloads::OltpServer oltp(bundle.machine(), bundle.kernel(), cfg,
                               2026);
    oltp.attachProfiler(&profiler);
    oltp.spawn();

    const sim::Tick end = bundle.run(60'000'000);
    std::printf("ran %.1f simulated ms; %llu transactions committed\n\n",
                sim::ticksToNs(end) / 1e6,
                static_cast<unsigned long long>(oltp.committed()));

    auto &regions = bundle.machine().regions();
    stats::Table t("per-lock-class behaviour (every acquisition "
                   "measured)");
    t.header({"lock", "acquisitions", "mean acquire cyc",
              "mean held cyc", "p99 held cyc"});
    for (const char *name : {"oltp.row-lock", "oltp.wal"}) {
        const auto &acq =
            profiler.stats(regions.find(std::string(name) + ".acquire"));
        const auto &held =
            profiler.stats(regions.find(std::string(name) + ".held"));
        t.beginRow()
            .cell(name)
            .cell(held.entries)
            .cell(acq.mean(0), 0)
            .cell(held.mean(0), 0)
            .cell(held.histogram.quantile(0.99));
    }
    std::fputs(t.render().c_str(), stdout);

    const auto &wal_held =
        profiler.stats(regions.find("oltp.wal.held"));
    std::printf("\nWAL critical-section length distribution "
                "(cycles):\n%s",
                wal_held.histogram.renderLog2(40).c_str());

    std::puts("\nTakeaway (paper implication): the dominant "
              "synchronization cost is many *short* critical sections "
              "and their acquisition latency, not long\n"
              "contended holds — visible only because every event is "
              "counted rather than sampled.");
    return 0;
}

/**
 * @file
 * E12 — Design-choice ablations beyond the paper's headline results.
 *
 * (a) Scheduler quantum: how preemption frequency scales the counter
 *     virtualization tax (and confirms PEC reads stay exact at any
 *     quantum — asserted in the property tests).
 * (b) PMI skid: how realistic interrupt skid corrupts sampling's
 *     attribution of short regions while leaving precise counting
 *     untouched.
 * (c) Next-line prefetching: the memory-substrate knob, shifting
 *     cache-event profiles without touching the counting machinery.
 * (d) Delta reads across the unified source roster: what one
 *     "count since my last look" costs per access method, the
 *     operation dense self-monitoring loops actually issue.
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
#include "baseline/source_set.hh"
#include "pec/pec.hh"
#include "stats/table.hh"
#include "workloads/oltp.hh"

namespace {

using namespace limit;

// --- (a) quantum sweep ------------------------------------------------

struct QuantumResult
{
    std::uint64_t switches;
    double switchKernelPct; // % of all cycles spent context switching
};

QuantumResult
runQuantum(sim::Tick quantum, std::uint64_t seed,
           const analysis::BenchArgs *trace = nullptr)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(2)
            .quantum(quantum)
            .seed(1 + seed)
            .traceCapacity(trace ? trace->captureCap() : 0)
            .timelineInterval(
                trace ? trace->captureTimelineInterval() : 0)
            .build());
    pec::PecSession s(b.kernel());
    s.addEvent(0, sim::EventType::Cycles);
    s.addEvent(1, sim::EventType::Instructions);
    s.addEvent(2, sim::EventType::L1DMiss);
    s.addEvent(3, sim::EventType::Branches);

    // Over-subscribe the cores so quanta actually expire.
    for (int i = 0; i < 6; ++i) {
        b.kernel().spawn("t" + std::to_string(i),
                         [&](sim::Guest &g) -> sim::Task<void> {
                             while (!g.shouldStop())
                                 co_await g.compute(2'000);
                             co_return;
                         });
    }
    b.run(20'000'000);

    const auto &costs = b.machine().cpu(0).costs();
    const std::uint64_t switches = b.kernel().totalContextSwitches();
    // Per switch: base cost + 4 counters saved+restored.
    const double switch_cycles = static_cast<double>(switches) *
        static_cast<double>(costs.contextSwitchCost +
                            4 * costs.counterSwitchCost);
    const double total = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::Cycles));
    if (trace)
        analysis::writeStandardArtifacts(b, *trace, "bench_e12_ablations");
    return {switches, 100.0 * switch_cycles / total};
}

// --- (b) skid sweep ----------------------------------------------------

double
shortRegionErrorWithSkid(sim::Tick skid, std::uint64_t seed)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .pmuWidth(30)
                              .seed(1 + seed)
                              .build());
    b.kernel().perf().setSkid(skid);
    baseline::SamplingProfiler prof(b.kernel(), 0,
                                    sim::EventType::Instructions,
                                    3'000);
    const auto region = b.machine().regions().intern("target");
    constexpr unsigned iters = 3000;
    constexpr std::uint64_t seg = 400;
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        sim::ComputeProfile p;
        p.branchFrac = 0;
        p.mispredictRate = 0;
        for (unsigned i = 0; i < iters; ++i) {
            co_await g.regionEnter(region);
            // Fine-grained ops so PMIs land throughout the region
            // (single-op regions make skid all-or-nothing).
            for (int c = 0; c < 8; ++c)
                co_await g.compute(seg / 8, p);
            co_await g.regionExit();
            co_await g.compute(2'200 + g.rng().below(1'400), p);
        }
        co_return;
    });
    b.machine().run();
    prof.aggregate();
    const double truth = static_cast<double>(seg) * iters;
    return 100.0 * (prof.estimate(region) - truth) / truth;
}

// --- (c) prefetcher ablation -------------------------------------------

struct PrefetchResult
{
    std::uint64_t committed;
    double llcMpki;
};

PrefetchResult
runPrefetch(bool enabled, std::uint64_t seed)
{
    mem::HierarchyConfig h;
    h.nextLinePrefetch = enabled;
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(4)
                              .hierarchy(h)
                              .seed(1 + seed)
                              .build());
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    cfg.rowsPerTable = 1 << 18;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 55 + seed);
    oltp.spawn();
    b.run(20'000'000);
    const double instr = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::Instructions));
    const double llc = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::LLCMiss));
    return {oltp.committed(), 1000.0 * llc / instr};
}

// --- (d) delta reads across the unified source roster ------------------

struct DeltaResult
{
    std::string method;
    limit::CounterCost cost;
    double cyclesPerDelta;
};

/**
 * Mean guest cost of one readDelta() through the unified
 * limit::CounterSource interface. The same loop body runs against
 * every method in baseline::standardSources(); only the source
 * changes.
 */
DeltaResult
runDelta(const baseline::SourceSpec &spec, std::uint64_t seed)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .seed(1 + seed)
                              .build());
    baseline::SourceInstance inst =
        spec.make(b.kernel(), 0, sim::EventType::Instructions, true,
                  false);
    limit::CounterSource &src = *inst.source;
    DeltaResult out;
    out.method = src.name();
    out.cost = src.cost();
    constexpr int reps = 1500;
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        for (int i = 0; i < 8; ++i) {
            const std::uint64_t v = co_await src.readDelta(g, 0);
            (void)v;
        }
        const sim::Tick t0 = g.now();
        for (int i = 0; i < reps; ++i) {
            co_await g.compute(50);
            const std::uint64_t v = co_await src.readDelta(g, 0);
            (void)v;
        }
        out.cyclesPerDelta = static_cast<double>(g.now() - t0) / reps;
        co_return;
    });
    b.machine().run();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    const auto args = limit::analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "simulation seeds averaged per table row");
    limit::analysis::ParallelRunner pool(args.jobs);
    const unsigned seeds = args.seeds;

    const std::vector<sim::Tick> quanta = {25'000, 100'000, 1'000'000,
                                           12'000'000};
    const std::vector<sim::Tick> skids = {0, 150, 400, 1'000};

    const std::vector<QuantumResult> q_runs = pool.map(
        quanta.size() * seeds, [&](std::size_t i) {
            return runQuantum(quanta[i / seeds], i % seeds);
        });
    const std::vector<double> skid_errs = pool.map(
        skids.size() * seeds, [&](std::size_t i) {
            return shortRegionErrorWithSkid(skids[i / seeds], i % seeds);
        });
    const std::vector<PrefetchResult> pf_runs = pool.map(
        2 * seeds, [&](std::size_t i) {
            return runPrefetch(i / seeds == 1, i % seeds);
        });
    const auto roster = limit::baseline::standardSources();
    const std::vector<DeltaResult> delta_runs = pool.map(
        roster.size() * seeds, [&](std::size_t i) {
            return runDelta(roster[i / seeds], i % seeds);
        });

    Table t1("E12a: context-switch tax vs scheduler quantum "
             "(4 virtualized counters, 6 threads on 2 cores)");
    t1.header({"quantum (cycles)", "switches", "% cycles switching"});
    for (std::size_t c = 0; c < quanta.size(); ++c) {
        double switches = 0, pct = 0;
        for (unsigned s = 0; s < seeds; ++s) {
            switches +=
                static_cast<double>(q_runs[c * seeds + s].switches);
            pct += q_runs[c * seeds + s].switchKernelPct;
        }
        t1.beginRow()
            .cell(static_cast<std::uint64_t>(quanta[c]))
            .cell(static_cast<std::uint64_t>(switches / seeds + 0.5))
            .cell(pct / seeds, 2);
    }
    std::fputs(t1.render().c_str(), stdout);

    Table t2("E12b: sampling attribution of a 400-instr region vs PMI "
             "skid (period 3k, 3000 visits; precise counting is exact "
             "regardless)");
    t2.header({"skid (cycles)", "estimate error %"});
    for (std::size_t c = 0; c < skids.size(); ++c) {
        double err = 0;
        for (unsigned s = 0; s < seeds; ++s)
            err += skid_errs[c * seeds + s];
        t2.beginRow()
            .cell(static_cast<std::uint64_t>(skids[c]))
            .cell(err / seeds, 1);
    }
    std::puts("");
    std::fputs(t2.render().c_str(), stdout);

    Table t3("E12c: next-line prefetcher ablation (OLTP, 20M cycles)");
    t3.header({"prefetcher", "txns committed", "LLC MPKI"});
    for (int on = 0; on < 2; ++on) {
        double committed = 0, mpki = 0;
        for (unsigned s = 0; s < seeds; ++s) {
            committed +=
                static_cast<double>(pf_runs[on * seeds + s].committed);
            mpki += pf_runs[on * seeds + s].llcMpki;
        }
        t3.beginRow()
            .cell(on ? "on" : "off")
            .cell(static_cast<std::uint64_t>(committed / seeds + 0.5))
            .cell(mpki / seeds, 3);
    }
    std::puts("");
    std::fputs(t3.render().c_str(), stdout);

    Table t4("E12d: cost of one delta read (count since last look, "
             "50-instr gap) per access method");
    t4.header({"method", "syscall/read", "precise", "library instrs",
               "cycles/delta"});
    for (std::size_t m = 0; m < roster.size(); ++m) {
        double cyc = 0;
        for (unsigned s = 0; s < seeds; ++s)
            cyc += delta_runs[m * seeds + s].cyclesPerDelta;
        const DeltaResult &r = delta_runs[m * seeds];
        t4.beginRow()
            .cell(r.method)
            .cell(r.cost.syscallPerRead ? "yes" : "no")
            .cell(r.cost.preciseEvents ? "yes" : "no")
            .cell(r.cost.libraryInstrs)
            .cell(cyc / seeds, 1);
    }
    std::puts("");
    std::fputs(t4.render().c_str(), stdout);

    std::puts("\nShape check: the virtualization tax is negligible at "
              "realistic quanta and only bites under pathological "
              "preemption; skid silently drains samples out of short\n"
              "regions (a bias no amount of extra samples repairs); "
              "the prefetcher shifts the measured cache profile — "
              "counters report it, counting machinery unaffected.");

    // Dedicated traced re-run: the pathological quantum, so the
    // timeline is wall-to-wall preemptions and counter save/restore.
    if (args.instrumented())
        runQuantum(25'000, 0, &args);
    return 0;
}

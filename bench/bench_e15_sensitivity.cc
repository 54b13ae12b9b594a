/**
 * @file
 * E15 — Sensitivity/causality bottleneck identification: the titular
 * "rapid identification" automated. Two scenarios each plant one
 * deliberate bottleneck in the base machine, then the sensitivity
 * engine perturbs every axis one-factor-at-a-time and ranks them by
 * how far each perturbation moves the work completed in a fixed
 * simulated interval — the planted axis must come out on top.
 *
 *  - "stream": a cache-resident stride-64 sweep on a machine whose
 *    L1D was shrunk to 2 KiB. The working set (24 KiB) fits the
 *    healthy 32 KiB L1 but thrashes the shrunken one into L2, so
 *    restoring the L1 size dominates every latency/TLB/PMU axis.
 *  - "overflow": a counter-read loop on a machine with a 12-bit
 *    cycle counter under the kernel fix-up policy — the counter
 *    wraps every 4096 cycles and the resulting overflow-PMI storm is
 *    the bottleneck; widening the counter beats every cache axis.
 *  - "spin": a flat-memory load/compute loop on a machine whose
 *    scheduling quantum was shrunk to 2 000 ticks, so timer overhead
 *    throttles the loop; restoring the quantum dominates the PMU and
 *    core-count axes. Unlike the cache-bound scenarios this loop is
 *    declared (Guest::declareLoop) and retires through superblock
 *    replay.
 *
 * All lattice points fan through analysis::ParallelRunner, so the
 * report (and the --profile JSON, schema limitpp-sensitivity-v1)
 * is bit-identical for any --jobs value and across the batched and
 * per-op execution modes.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "analysis/args.hh"
#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "analysis/runner.hh"
#include "analysis/sensitivity/engine.hh"
#include "analysis/sensitivity/param_space.hh"
#include "fault/plan.hh"
#include "pec/pec.hh"
#include "prof/report.hh"

namespace {

using namespace limit;
using analysis::BundleOptions;
using analysis::sensitivity::Axis;
using analysis::sensitivity::Measurement;
using analysis::sensitivity::ParamSpace;

/**
 * Fault plan spec from --faults, applied to every lattice run (one
 * fresh PlanController per bundle — workloads run concurrently).
 */
std::string g_faults; // NOLINT: set once in main before any job runs

/** Attach a per-bundle controller for g_faults (empty = none). */
class ScopedFaults
{
  public:
    explicit ScopedFaults(analysis::SimBundle &b) : bundle_(b)
    {
        if (g_faults.empty())
            return;
        fault::Plan plan;
        std::string error;
        if (!fault::Plan::parse(g_faults, plan, error))
            return; // already validated by parseBenchArgs
        controller_.emplace(b.machine(), std::move(plan));
        b.machine().setFaults(&*controller_);
    }

    ~ScopedFaults()
    {
        if (controller_)
            bundle_.machine().setFaults(nullptr);
    }

  private:
    analysis::SimBundle &bundle_;
    std::optional<fault::PlanController> controller_;
};

/**
 * Stride-64 sweep over a 24 KiB buffer (384 lines): resident in a
 * 32 KiB L1D, a guaranteed miss-per-access on the planted 2 KiB one.
 * Work = memory accesses completed in 2M simulated cycles. Each full
 * sweep is wrapped in a calibrated PEC region, so the lattice carries
 * exact per-sweep cycle attribution through Measurement::metrics —
 * the region instrumentation is identical at every lattice point, so
 * rankings are unperturbed. A non-null `report` marks this the
 * dedicated representative run: it writes the artifacts `args`
 * requests, with `report` as the profile.
 */
Measurement
streamWorkload(const BundleOptions &base, std::uint64_t seed,
               const analysis::BenchArgs *args = nullptr,
               prof::Report *report = nullptr)
{
    analysis::SimBundle b(
        BundleOptions::Builder::from(base).seed(seed).build());
    ScopedFaults faults(b);
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler rprof(session, rc);
    constexpr sim::RegionId sweepRegion = 1;

    constexpr sim::Addr bufBase = 0x10'0000;
    constexpr unsigned lines = 384; // 24 KiB of 64-byte lines
    std::uint64_t accesses = 0;
    b.kernel().spawn("stream", [&](sim::Guest &g) -> sim::Task<void> {
        co_await rprof.calibrate(g);
        while (!g.shouldStop()) {
            co_await rprof.enter(g, sweepRegion);
            for (unsigned i = 0; i < lines && !g.shouldStop(); ++i) {
                co_await g.load(bufBase + i * 64);
                co_await g.compute(1);
                ++accesses;
            }
            co_await rprof.exit(g, sweepRegion);
        }
        co_return;
    });
    b.run(2'000'000);

    Measurement m;
    m.work = static_cast<double>(accesses);
    const auto loads =
        analysis::totalEvent(b.kernel(), sim::EventType::Loads);
    m.metrics["l1d_miss_pct"] = analysis::percentOf(
        analysis::totalEvent(b.kernel(), sim::EventType::L1DMiss),
        loads);
    m.metrics["dtlb_miss_pct"] = analysis::percentOf(
        analysis::totalEvent(b.kernel(), sim::EventType::DTlbMiss),
        loads);
    m.metrics["cycles_per_access"] = accesses == 0
        ? 0.0
        : static_cast<double>(analysis::totalEvent(
              b.kernel(), sim::EventType::Cycles)) /
            static_cast<double>(accesses);
    // Exact region attribution (overhead-subtracted): completed
    // sweeps and their mean cycle cost ride the lattice so profdiff
    // can compare them across runs. The sweep cut short by the stop
    // request stays open and is deliberately not folded.
    const pec::RegionStats &rs = rprof.stats(sweepRegion);
    m.metrics["region.sweep.entries"] =
        static_cast<double>(rs.entries);
    m.metrics["region.sweep.cycles_mean"] = rs.mean(0);
    m.metrics["region.sweep.open_visits"] =
        static_cast<double>(rprof.openRegions().size());
    if (report)
        analysis::writeArtifacts(*args, "bench_e15_sensitivity", *report,
                                 b);
    return m;
}

/**
 * Counter-read loop under the kernel overflow fix-up: 40 compute
 * cycles then one exact read, repeated for 1.5M simulated cycles.
 * With the planted 12-bit cycle counter every ~4096 cycles raise an
 * overflow PMI, and the fix-up overhead throttles the loop.
 * Work = exact reads completed.
 */
Measurement
overflowWorkload(const BundleOptions &base, std::uint64_t seed)
{
    analysis::SimBundle b(
        BundleOptions::Builder::from(base).seed(seed).build());
    ScopedFaults faults(b);
    pec::PecConfig pc;
    pc.policy = pec::OverflowPolicy::KernelFixup;
    pec::PecSession session(b.kernel(), pc);
    session.addEvent(0, sim::EventType::Cycles); // user cycles

    std::uint64_t reads = 0;
    b.kernel().spawn("reader", [&](sim::Guest &g) -> sim::Task<void> {
        while (!g.shouldStop()) {
            co_await g.compute(40);
            (void)co_await session.read(g, 0);
            ++reads;
        }
        co_return;
    });
    b.run(1'500'000);

    Measurement m;
    m.work = static_cast<double>(reads);
    m.metrics["overflow_fixups"] =
        static_cast<double>(session.overflowFixups());
    m.metrics["read_restarts"] =
        static_cast<double>(session.readRestarts());
    return m;
}

/**
 * Flat-memory load/compute spin under a starved 2 000-tick quantum:
 * the declared loop body (one fast-path load, one 2-instruction
 * compute) retires through superblock replay, so this scenario puts
 * replay on the hot path. Work = loop iterations in 2M simulated
 * cycles.
 */
Measurement
spinWorkload(const BundleOptions &base, std::uint64_t seed)
{
    analysis::SimBundle b(
        BundleOptions::Builder::from(base).seed(seed).build());
    ScopedFaults faults(b);

    std::uint64_t iters = 0;
    b.kernel().spawn("spin", [&](sim::Guest &g) -> sim::Task<void> {
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 2}});
        while (!g.shouldStop()) {
            co_await g.load(0x8000 + (iters % 256) * 64);
            co_await g.compute(2);
            ++iters;
        }
        co_return;
    });
    b.run(2'000'000);

    Measurement m;
    m.work = static_cast<double>(iters);
    m.metrics["context_switches"] = static_cast<double>(
        b.kernel().totalContextSwitches());
    m.metrics["cycles_per_iter"] = iters == 0
        ? 0.0
        : static_cast<double>(analysis::totalEvent(
              b.kernel(), sim::EventType::Cycles)) /
            static_cast<double>(iters);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "seeds averaged per lattice point");
    g_faults = args.faults;

    prof::Report report;

    // --- Scenario 1: shrunken L1 on a cache-resident stream ----------
    {
        ParamSpace space(
            BundleOptions::builder()
                .cores(1)
                .l1Size(2 * 1024) // the planted bottleneck
                .build());
        space.add(Axis::l1Size({32 * 1024})) // restore to healthy
            .add(Axis::l1Latency({8}))
            .add(Axis::l2Latency({24}))
            .add(Axis::memLatency({440}))
            .add(Axis::tlbEntries({16}))
            .add(Axis::counterWidth({16}))
            .add(Axis::quantum({20'000}));

        analysis::sensitivity::Options opts;
        opts.scenario = "stream";
        opts.workMetric = "accesses";
        opts.seeds = args.seeds;
        opts.jobs = args.jobs;
        analysis::sensitivity::analyzeInto(
            report, space,
            [](const BundleOptions &o, std::uint64_t s) {
                return streamWorkload(o, s);
            },
            opts);
    }

    // --- Scenario 2: narrowed counter on an exact-read loop ----------
    {
        ParamSpace space(BundleOptions::builder()
                             .cores(1)
                             .pmuWidth(12) // the planted bottleneck
                             .build());
        space.add(Axis::counterWidth({24, 48})) // widen back out
            .add(Axis::l1Latency({8}))
            .add(Axis::l2Latency({24}))
            .add(Axis::memLatency({440}))
            .add(Axis::quantum({20'000}));

        analysis::sensitivity::Options opts;
        opts.scenario = "overflow";
        opts.workMetric = "reads";
        opts.seeds = args.seeds;
        opts.jobs = args.jobs;
        analysis::sensitivity::analyzeInto(report, space,
                                           overflowWorkload, opts);
    }

    // --- Scenario 3: starved quantum on a replayable spin loop -------
    {
        ParamSpace space(BundleOptions::builder()
                             .cores(1)
                             .flatMemory()
                             .quantum(2'000) // the planted bottleneck
                             .build());
        space.add(Axis::quantum({20'000})) // restore to healthy
            .add(Axis::counterWidth({48}))
            .add(Axis::cores({2}));

        analysis::sensitivity::Options opts;
        opts.scenario = "spin";
        opts.workMetric = "iterations";
        opts.seeds = args.seeds;
        opts.jobs = args.jobs;
        analysis::sensitivity::analyzeInto(report, space,
                                           spinWorkload, opts);
    }

    std::fputs(report
                   .sensitivityTable(
                       "E15: one-factor sensitivity, axes ranked by "
                       "max |Δwork| (planted bottleneck must rank 1)")
                   .render()
                   .c_str(),
               stdout);

    // Verdict lines: the thing a human would read off the table.
    for (const auto &s : report.sensitivitySections()) {
        if (s.axes.empty())
            continue;
        const auto &top = s.axes.front();
        std::printf("\n%s bottleneck: %s (score %.2f, baseline %s "
                    "%.0f)\n",
                    s.name.c_str(), top.axis.c_str(), top.score,
                    s.workMetric.c_str(), s.baselineWork);
    }

    // Dedicated instrumented run (stream scenario's planted-bottleneck
    // baseline, lattice-independent seed) for the artifacts; the
    // tables above are untouched by it.
    if (args.instrumented()) {
        const BundleOptions rep = BundleOptions::builder()
                                      .cores(1)
                                      .l1Size(2 * 1024)
                                      .capture(&args)
                                      .build();
        streamWorkload(rep, 1, &args, &report);
    }

    std::puts("\nEXPERIMENTS.md (E15) markdown:");
    std::fputs(report.sensitivityMarkdown().c_str(), stdout);

    std::puts("\nShape check: 'stream' ranks l1_size first (restoring "
              "the shrunken L1 recovers the most work), 'overflow' "
              "ranks pmu_width first (widening the 12-bit\n"
              "counter dissolves the overflow-PMI storm), 'spin' ranks "
              "quantum first (the starved 2000-tick quantum is pure "
              "timer overhead) — the engine identifies\n"
              "the planted bottleneck without a human reading the "
              "tables.");
    return 0;
}

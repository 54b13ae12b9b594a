/**
 * @file
 * Tests for the precise event counting library — the paper's core
 * claims rendered as assertions: fast reads are exact under counter
 * virtualization, context switches, and overflow (KernelFixup /
 * DoubleCheck policies), while the naive read demonstrably loses
 * 2^width counts when an overflow lands mid-read.
 */

#include <gtest/gtest.h>

#include "analysis/bundle.hh"
#include "os/kernel.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "stats/hdr_histogram.hh"

namespace limit {
namespace {

using os::Kernel;
using pec::OverflowPolicy;
using pec::PecConfig;
using pec::PecSession;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;

MachineConfig
cfg(unsigned cores = 1, unsigned width = 48)
{
    MachineConfig c;
    c.numCores = cores;
    c.costs.quantum = 100'000;
    c.pmuFeatures.counterWidth = width;
    return c;
}

PecConfig
policy(OverflowPolicy p)
{
    PecConfig c;
    c.policy = p;
    return c;
}

/**
 * A compute profile with no branches: instruction counts — and with
 * flat memory, everything else — become fully deterministic.
 */
sim::ComputeProfile
straightLine()
{
    sim::ComputeProfile p;
    p.branchFrac = 0.0;
    p.mispredictRate = 0.0;
    return p;
}

/**
 * Instructions retired between a read's value capture and the end of
 * the thread, for a thread that ends right after the read: the
 * KernelFixup read's tail (sum + exit marker + return).
 */
constexpr std::uint64_t kernelFixupTail = 4;

TEST(Pec, ReadMatchesLedgerExactly)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t v = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(100'000, straightLine());
        v = co_await s.read(g, 0);
        co_return;
    });
    m.run();
    const std::uint64_t truth =
        k.thread(0).ctx.ledger().count(EventType::Instructions,
                                       PrivMode::User);
    EXPECT_EQ(v, truth - kernelFixupTail);
}

TEST(Pec, ReadExactAcrossContextSwitches)
{
    // Two threads share one core with short quanta: values must be
    // per-thread exact despite dozens of counter save/restores.
    auto c = cfg(1);
    c.costs.quantum = 20'000;
    Machine m(c);
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t v[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i), [&, i](Guest &g) -> Task<void> {
            for (int j = 0; j < 100; ++j)
                co_await g.compute(1000 + i, straightLine());
            v[i] = co_await s.read(g, 0);
            co_return;
        });
    }
    m.run();
    for (int i = 0; i < 2; ++i) {
        const std::uint64_t truth =
            k.thread(i).ctx.ledger().count(EventType::Instructions,
                                           PrivMode::User);
        EXPECT_EQ(v[i], truth - kernelFixupTail) << "thread " << i;
    }
}

TEST(Pec, KernelFixupExactUnderHeavyOverflow)
{
    // 8-bit counter wraps every 256 user cycles; a long run forces
    // hundreds of overflows and some mid-read restarts.
    Machine m(cfg(1, 8));
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Cycles);
    std::vector<std::uint64_t> reads;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 500; ++i) {
            co_await g.compute(50, straightLine());
            const std::uint64_t v = co_await s.read(g, 0);
            reads.push_back(v);
        }
        co_return;
    });
    m.run();
    // Monotone non-decreasing: no read ever lost a wrap.
    for (size_t i = 1; i < reads.size(); ++i)
        ASSERT_GE(reads[i], reads[i - 1]) << "at read " << i;
    EXPECT_GT(s.overflowFixups(), 100u);
    EXPECT_GT(s.readRestarts(), 0u); // some overflows landed mid-read
}

TEST(Pec, DoubleCheckExactUnderHeavyOverflow)
{
    Machine m(cfg(1, 8));
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::DoubleCheck));
    s.addEvent(0, EventType::Cycles);
    std::vector<std::uint64_t> reads;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 500; ++i) {
            co_await g.compute(50, straightLine());
            const std::uint64_t v = co_await s.read(g, 0);
            reads.push_back(v);
        }
        co_return;
    });
    m.run();
    for (size_t i = 1; i < reads.size(); ++i)
        ASSERT_GE(reads[i], reads[i - 1]) << "at read " << i;
    EXPECT_GT(s.doubleCheckRetries(), 0u);
}

TEST(Pec, NaiveSumLosesAWrapDeterministically)
{
    // Place the overflow exactly inside the rdpmc of the read: the
    // NaiveSum path retires (accumulator load, rdpmc) after the
    // workload, so with an 8-bit instruction counter W = 254 makes the
    // counter hit 255 at the load and wrap to 0 during the rdpmc —
    // the handler bumps the accumulator only after the stale value
    // was captured.
    Machine m(cfg(1, 8));
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::NaiveSum));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t v = 99;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(254, straightLine());
        v = co_await s.read(g, 0);
        co_return;
    });
    m.run();
    // True count at the capture instant is 256; the racy sum is 0 —
    // an undercount of exactly one full 2^8 wrap.
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(s.readRestarts(), 0u);
    EXPECT_EQ(s.overflowFixups(), 1u);
}

TEST(Pec, KernelFixupSurvivesTheSameDeterministicRace)
{
    Machine m(cfg(1, 8));
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t v = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(252, straightLine());
        v = co_await s.read(g, 0);
        co_return;
    });
    m.run();
    const std::uint64_t truth =
        k.thread(0).ctx.ledger().count(EventType::Instructions,
                                       PrivMode::User);
    EXPECT_EQ(v, truth - kernelFixupTail);
}

TEST(Pec, PolicyNoneWrapsVisibly)
{
    Machine m(cfg(1, 8));
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::None));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t v = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(1000, straightLine());
        v = co_await s.read(g, 0);
        co_return;
    });
    m.run();
    EXPECT_LT(v, 256u); // raw 8-bit value: hopelessly wrapped
    EXPECT_EQ(s.overflowFixups(), 0u); // no kernel support at all
}

TEST(Pec, ReadDeltaWithDestructiveHardware)
{
    auto c = cfg();
    c.pmuFeatures.destructiveRead = true;
    Machine m(c);
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    std::uint64_t d1 = 0, d2 = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(500, straightLine());
        d1 = co_await s.readDelta(g, 0);
        co_await g.compute(800, straightLine());
        d2 = co_await s.readDelta(g, 0);
        co_return;
    });
    m.run();
    // d2 covers: readDelta-1 tail (load + 3 compute = 4 instrs), the
    // 800-instruction block, and readDelta-2's own capture (1 instr).
    EXPECT_EQ(d2, 800u + 4u + 1u);
    EXPECT_GE(d1, 500u);
}

TEST(PecDeathTest, ReadDeltaRequiresFeature)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    EXPECT_EXIT(
        {
            k.spawn("t", [&](Guest &g) -> Task<void> {
                const std::uint64_t v = co_await s.readDelta(g, 0);
                (void)v;
                co_return;
            });
            m.run();
        },
        ::testing::ExitedWithCode(1), "destructiveRead");
}

// The simulated cost of a fast read, pinned exactly: 20,000
// back-to-back reads of one counter on an idle core at seed 1, each
// read's guest-visible duration in simulated cycles. Any change is a
// read-path or cost-model change and re-pins on purpose.
TEST(Pec, FastReadLatencyPercentilesPinned)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).seed(1).build());
    PecSession session(b.kernel());
    session.addEvent(0, EventType::Cycles, true, true);
    stats::HdrHistogram h;
    b.kernel().spawn("probe", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 20'000; ++i) {
            const sim::Tick t0 = g.now();
            const std::uint64_t v = co_await session.read(g, 0);
            (void)v;
            h.add(g.now() - t0);
        }
    });
    b.machine().run();
    EXPECT_EQ(h.totalCount(), 20'000u);
    EXPECT_EQ(h.quantile(0.5), 111u);
    EXPECT_EQ(h.quantile(0.99), 125u);
    EXPECT_EQ(h.quantile(0.999), 125u);
}

TEST(Pec, MultipleCountersIndependent)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    s.addEvent(1, EventType::Loads);
    std::uint64_t instrs = 0, loads = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await g.compute(100, straightLine());
            co_await g.load(0x1000);
        }
        instrs = co_await s.read(g, 0);
        loads = co_await s.read(g, 1);
        co_return;
    });
    m.run();
    EXPECT_GE(instrs, 1000u);
    // 10 workload loads + 1 accumulator load inside read #1 + 1 inside
    // read #2 (counter 1's own read happens after its capture).
    EXPECT_EQ(loads, 10u + 2u);
}

TEST(Pec, RemoveEventStopsCounting)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    EXPECT_TRUE(s.eventActive(0));
    s.removeEvent(0);
    EXPECT_FALSE(s.eventActive(0));
    std::uint64_t v = 99;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(1000, straightLine());
        v = co_await g.pmcRead(0);
        co_return;
    });
    m.run();
    EXPECT_EQ(v, 0u);
}

// ---------------------------------------------------------------------
// RegionProfiler
// ---------------------------------------------------------------------

TEST(RegionProfiler, MeasuresKnownSegmentAfterCalibration)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(s, rc);
    const auto region = m.regions().intern("seg");

    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await prof.calibrate(g);
        for (int i = 0; i < 20; ++i) {
            co_await prof.enter(g, region);
            co_await g.compute(5000, straightLine());
            co_await prof.exit(g, region);
        }
        co_return;
    });
    m.run();
    ASSERT_TRUE(prof.calibrated());
    const auto &st = prof.stats(region);
    EXPECT_EQ(st.entries, 20u);
    // Calibration removes the read pair's contribution almost fully;
    // the residue is the regionEnter/Exit markers (a few instrs).
    EXPECT_NEAR(st.mean(0), 5000.0, 10.0);
    EXPECT_EQ(st.histogram.totalCount(), 20u);
}

TEST(RegionProfiler, NestedRegionsAttributeSeparately)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(s, rc);
    const auto outer = m.regions().intern("outer");
    const auto inner = m.regions().intern("inner");

    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await prof.calibrate(g);
        co_await prof.enter(g, outer);
        co_await g.compute(2000, straightLine());
        co_await prof.enter(g, inner);
        co_await g.compute(3000, straightLine());
        co_await prof.exit(g, inner);
        co_await g.compute(1000, straightLine());
        co_await prof.exit(g, outer);
        co_return;
    });
    m.run();
    EXPECT_NEAR(prof.stats(inner).mean(0), 3000.0, 10.0);
    // Outer includes inner plus the inner boundary instrumentation.
    EXPECT_GT(prof.stats(outer).mean(0), 6000.0);
    EXPECT_LT(prof.stats(outer).mean(0), 6300.0);
}

TEST(RegionProfiler, UncalibratedKeepsReadOverhead)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    rc.subtractOverhead = false;
    pec::RegionProfiler prof(s, rc);
    const auto region = m.regions().intern("seg");
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await prof.enter(g, region);
        co_await g.compute(100, straightLine());
        co_await prof.exit(g, region);
        co_return;
    });
    m.run();
    // Without subtraction the measured value strictly exceeds the body.
    EXPECT_GT(prof.stats(region).mean(0), 100.0);
}

TEST(RegionProfiler, DestructiveModeMatchesSnapshotMode)
{
    auto run = [](bool destructive) {
        auto c = cfg();
        c.pmuFeatures.destructiveRead = true;
        Machine m(c);
        Kernel k(m);
        PecSession s(k, policy(OverflowPolicy::KernelFixup));
        s.addEvent(0, EventType::Instructions);
        pec::RegionProfilerConfig rc;
        rc.counters = {0};
        rc.destructiveReads = destructive;
        rc.subtractOverhead = false;
        pec::RegionProfiler prof(s, rc);
        const auto region = m.regions().intern("seg");
        k.spawn("t", [&](Guest &g) -> Task<void> {
            for (int i = 0; i < 10; ++i) {
                co_await prof.enter(g, region);
                co_await g.compute(4000, straightLine());
                co_await prof.exit(g, region);
            }
            co_return;
        });
        m.run();
        return prof.stats(region).mean(0);
    };
    const double snapshot = run(false);
    const double destructive = run(true);
    // Both measure the same 4000-instruction body, within the small
    // difference of their own instrumentation footprints.
    EXPECT_NEAR(snapshot, destructive, 30.0);
    EXPECT_GE(snapshot, 4000.0);
    EXPECT_GE(destructive, 4000.0);
}

TEST(RegionProfiler, OpenRegionsReportsEnteredNeverExitedVisits)
{
    auto c = cfg();
    c.costs.quantum = 50'000;
    Machine m(c);
    Kernel k(m);
    PecSession s(k, policy(OverflowPolicy::KernelFixup));
    s.addEvent(0, EventType::Instructions);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(s, rc);
    const auto closed = m.regions().intern("closed");
    const auto dangling = m.regions().intern("dangling");

    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await prof.enter(g, closed);
        co_await g.compute(500, straightLine());
        co_await prof.exit(g, closed);
        // Entered but never exited: the visit must not silently
        // vanish from the profiler's view.
        co_await prof.enter(g, dangling);
        co_await g.compute(500, straightLine());
        co_return;
    });
    m.run();

    EXPECT_EQ(prof.stats(closed).entries, 1u);
    EXPECT_EQ(prof.stats(dangling).entries, 0u);
    const auto open = prof.openRegions();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].region, dangling);
    EXPECT_NE(open[0].tid, limit::sim::invalidThread);
    EXPECT_GT(open[0].enterTick, 0u);
}

TEST(RegionProfilerDeathTest, ExitWithoutEnterPanics)
{
    EXPECT_DEATH(
        {
            Machine m(cfg());
            Kernel k(m);
            PecSession s(k, policy(OverflowPolicy::KernelFixup));
            s.addEvent(0, EventType::Instructions);
            pec::RegionProfilerConfig rc;
            rc.counters = {0};
            pec::RegionProfiler prof(s, rc);
            const auto region = m.regions().intern("seg");
            k.spawn("t", [&](Guest &g) -> Task<void> {
                co_await prof.exit(g, region);
                co_return;
            });
            m.run();
        },
        "no open");
}

// ---------------------------------------------------------------------
// Multiplexing
// ---------------------------------------------------------------------

TEST(Mux, EstimatesApproachGroundTruthForSteadyWorkload)
{
    Machine m(cfg(2));
    Kernel k(m);
    m.requestStopAt(3'000'000);
    pec::MuxSession mux(k, 0,
                        {{EventType::Instructions, true, false},
                         {EventType::Loads, true, false}});

    k.spawn("worker", [&](Guest &g) -> Task<void> {
        while (!g.shouldStop()) {
            co_await g.compute(200, straightLine());
            for (int i = 0; i < 10; ++i)
                co_await g.load(0x1000 + (i % 8) * 64);
        }
        co_return;
    });
    k.spawn("rotator", [&](Guest &g) -> Task<void> {
        while (!g.shouldStop()) {
            co_await g.syscall(os::sysSleep, {50'000, 0, 0, 0});
            co_await mux.rotate(g);
        }
        co_return;
    });
    const sim::Tick end = m.run();
    mux.finish(end);

    EXPECT_GT(mux.rotations(), 20u);
    const auto &ledger = k.thread(0).ctx.ledger();
    const double truth_instr = static_cast<double>(
        ledger.count(EventType::Instructions, PrivMode::User));
    const double truth_loads = static_cast<double>(
        ledger.count(EventType::Loads, PrivMode::User));

    // Raw counts are only partial (duty cycle < 1)...
    EXPECT_LT(static_cast<double>(mux.rawCount(0, 0)), truth_instr);
    // ...but scaled estimates land near the truth for steady phases.
    EXPECT_NEAR(mux.estimate(0, 0) / truth_instr, 1.0, 0.15);
    EXPECT_NEAR(mux.estimate(0, 1) / truth_loads, 1.0, 0.15);
}

} // namespace
} // namespace limit

/**
 * @file
 * Horizon-batched scheduler equivalence tests.
 *
 * The batched run loop (Machine::runBatched + Cpu::runUntil + the
 * inline-awaiter fast path) must be *bit-identical* to the per-op
 * reference scheduler — same ledgers, same PMU finals, same PMI
 * timing, same context-switch count, same trace record stream, same
 * end tick. Each scenario here is shaped after one of the published
 * experiments (overflow storms, futex-heavy sync, region-attributed
 * phases, fault injection, sleep-driven migration, the OLTP sleeper
 * convoy) and is run under both schedulers via
 * BundleOptions::batched; the whole observable machine state, cache
 * and TLB counts included, is then compared field by field with the
 * harness tests/test_superblock.cc uses (tests/equivalence.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "equivalence.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sync/mutex.hh"
#include "workloads/oltp.hh"

namespace limit {
namespace {

using equiv::collect;
using equiv::expectIdentical;
using equiv::Fingerprint;
using fault::FaultSpec;
using fault::Plan;
using fault::PlanController;
using fault::Site;
using sim::EventType;
using sim::Guest;
using sim::Task;

// ---------------------------------------------------------------------
// Overflow-storm shape: narrow counters, PMIs mid-batch, PEC reads
// ---------------------------------------------------------------------

Fingerprint
runPmiStorm(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(2)
                              .quantum(20'000)
                              .pmuWidth(18) // wraps every ~256K cycles
                              .seed(11)
                              .batched(batched)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);
    session.addEvent(1, EventType::Cycles, true, true);

    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "storm" + std::to_string(i),
            [&session](Guest &g) -> Task<void> {
                std::uint64_t sum = 0;
                for (unsigned s = 0; s < 400; ++s) {
                    co_await g.compute(50 + g.rng().below(40));
                    const sim::Addr a =
                        0x200000 + g.rng().below(1 << 14) * 8;
                    co_await g.load(a);
                    co_await g.store(a + 8);
                    if (s % 16 == 0)
                        sum += co_await g.pmcRead(0);
                    if (s % 64 == 0)
                        sum += co_await session.read(g, 0);
                }
                (void)sum;
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(BatchEquivalence, PmiStormBitIdentical)
{
    expectIdentical(runPmiStorm(true), runPmiStorm(false));
}

// ---------------------------------------------------------------------
// Sync-study shape: contended locks, futex sleeps, atomics, yields
// ---------------------------------------------------------------------

Fingerprint
runSyncFutex(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(2)
                              .quantum(10'000)
                              .seed(23)
                              .batched(batched)
                              .build());

    std::vector<std::unique_ptr<sync::Mutex>> locks;
    for (int i = 0; i < 2; ++i)
        locks.push_back(std::make_unique<sync::Mutex>(0x9000 + i * 64));
    auto shared = std::make_unique<std::uint64_t>(0);

    for (unsigned i = 0; i < 4; ++i) {
        b.kernel().spawn(
            "sync" + std::to_string(i),
            [&locks, &shared](Guest &g) -> Task<void> {
                for (unsigned s = 0; s < 150; ++s) {
                    sync::Mutex &mu =
                        *locks[g.rng().below(locks.size())];
                    co_await mu.lock(g);
                    co_await g.compute(1 + g.rng().below(200));
                    co_await mu.unlock(g);
                    co_await g.atomicFetchAdd(shared.get(), 0xa000, 1);
                    if (s % 11 == 0) {
                        co_await g.syscall(
                            os::sysSleep,
                            {1 + g.rng().below(5'000), 0, 0, 0});
                    }
                    if (s % 7 == 0)
                        co_await g.syscall(os::sysYield);
                }
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(BatchEquivalence, SyncFutexBitIdentical)
{
    expectIdentical(runSyncFutex(true), runSyncFutex(false));
}

// ---------------------------------------------------------------------
// Attribution shape: region-bracketed phases with a live tracer
// ---------------------------------------------------------------------

Fingerprint
runRegionsTrace(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(2)
                              .quantum(25'000)
                              .seed(5)
                              .trace()
                              .batched(batched)
                              .build());
    const sim::RegionId hot = b.machine().regions().intern("hot");
    const sim::RegionId cold = b.machine().regions().intern("cold");

    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "region" + std::to_string(i),
            [hot, cold](Guest &g) -> Task<void> {
                for (unsigned s = 0; s < 200; ++s) {
                    co_await g.regionEnter(hot);
                    co_await g.compute(30);
                    co_await g.load(0x300000 + s * 8);
                    co_await g.regionExit();
                    co_await g.regionEnter(cold);
                    co_await g.store(0x400000 + s * 64);
                    co_await g.regionExit();
                    if (s % 13 == 0)
                        co_await g.syscall(os::sysNop);
                }
            });
    }
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(BatchEquivalence, RegionsAndTraceStreamBitIdentical)
{
    expectIdentical(runRegionsTrace(true), runRegionsTrace(false));
}

// ---------------------------------------------------------------------
// Fault-plan shape: injected seams must fire at the same points
// ---------------------------------------------------------------------

Fingerprint
runFaultPlan(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .quantum(50'000)
                              .pmuWidth(20)
                              .seed(7)
                              .batched(batched)
                              .build());
    pec::PecSession session(b.kernel(),
                            {.policy = pec::OverflowPolicy::DoubleCheck});
    session.addEvent(0, EventType::Instructions, true, false);

    b.kernel().spawn("victim", [&session](Guest &g) -> Task<void> {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < 40; ++s) {
            co_await g.compute(2'000);
            sum += co_await session.read(g, 0);
        }
        (void)sum;
    });
    b.kernel().spawn("competitor", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 600; ++s)
            co_await g.compute(40);
    });

    Plan plan;
    FaultSpec p;
    p.site = Site::PreemptRead;
    p.step = 1;
    plan.add(p);
    PlanController ctl(b.machine(), plan);
    b.machine().setFaults(&ctl);
    const sim::Tick end = b.machine().run();
    EXPECT_EQ(ctl.injected(), 1u);
    return collect(b, end);
}

TEST(BatchEquivalence, FaultSeamsFireIdentically)
{
    expectIdentical(runFaultPlan(true), runFaultPlan(false));
}

// ---------------------------------------------------------------------
// Migration shape: sleeping unpinned threads hop cores, next to a
// compute/yield bystander
// ---------------------------------------------------------------------

Fingerprint
runMigrationMix(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(3)
                              .quantum(8'000)
                              .seed(41)
                              .trace()
                              .batched(batched)
                              .build());

    for (unsigned i = 0; i < 5; ++i) {
        b.kernel().spawn(
            "hopper" + std::to_string(i),
            [](Guest &g) -> Task<void> {
                for (unsigned s = 0; s < 100; ++s) {
                    co_await g.compute(200 + g.rng().below(300));
                    co_await g.load(0x500000 + g.rng().below(1 << 12) * 8);
                    // Sleeping releases the core; the wake lands on
                    // whichever core is idle, migrating the thread.
                    co_await g.syscall(
                        os::sysSleep,
                        {1 + g.rng().below(2'500), 0, 0, 0});
                }
            });
    }
    // A thread that never sleeps: the scheduler must interleave it
    // with the migrating threads exactly as the per-op loop does.
    b.kernel().spawn("bystander", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 400; ++s) {
            co_await g.compute(90);
            if (s % 10 == 0)
                co_await g.syscall(os::sysYield);
        }
    });
    const sim::Tick end = b.machine().run();
    return collect(b, end);
}

TEST(BatchEquivalence, MigrationMixBitIdentical)
{
    expectIdentical(runMigrationMix(true), runMigrationMix(false));
}

// ---------------------------------------------------------------------
// Sleeper convoy: simultaneous deadlines across an all-idle machine
// ---------------------------------------------------------------------

/**
 * Regression scenario for the poll-ordering contract. When every core
 * is idle, Kernel::poll(maxTick) wakes exactly ONE sleeper and the
 * per-op loop runs that thread's first round before polling again —
 * so when several wake deadlines are due together, wakes and first
 * ops strictly alternate. A scheduler that re-polls before running
 * the re-derived pick delivers the later wakes first and drifts off
 * the per-op schedule. The OLTP analogue's clients block on futexes
 * with convoyed sleep deadlines, so the machine drains to fully idle
 * many times per run with multiple wakes pending. No tracer here —
 * the server allocates its locks per run, and futex tracepoints
 * record host addresses — so the fingerprint is ledgers/PMU/switches
 * plus the commit count.
 */
Fingerprint
runOltpConvoy(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(4)
                              .seed(1)
                              .batched(batched)
                              .build());
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    cfg.readRatio = 0.5;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 1234);
    oltp.spawn();
    const sim::Tick end = b.run(4'000'000);
    Fingerprint fp = collect(b, end);
    // A schedule drift that somehow kept every ledger identical would
    // still have to keep the commit count identical.
    fp.ledgers.push_back(oltp.committed());
    return fp;
}

TEST(BatchEquivalence, OltpConvoyBitIdentical)
{
    expectIdentical(runOltpConvoy(true), runOltpConvoy(false));
}

} // namespace
} // namespace limit

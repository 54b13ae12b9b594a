/**
 * @file
 * Tests for the attribution-profiler layer (src/prof): per-call-site
 * synchronization profiles, per-thread kernel profiles, and the
 * Report pipeline — plus the E6 pin test, which checks the
 * critical-section histogram bucket-exactly against per-visit cycle
 * deltas hand-computed from the simulator's own ledger.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/kernel.hh"
#include "pec/pec.hh"
#include "prof/kernel_profile.hh"
#include "prof/report.hh"
#include "prof/sync_profile.hh"
#include "sim/machine.hh"
#include "workloads/instrumented_mutex.hh"

namespace limit {
namespace {

using os::Kernel;
using pec::PecSession;
using prof::CallSiteId;
using prof::KernelProfile;
using prof::SyncProfile;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;
using sim::ThreadId;

MachineConfig
cfg(unsigned cores = 1)
{
    MachineConfig c;
    c.numCores = cores;
    // One quantum covers every test workload: no timer interrupts
    // land inside a measured region.
    c.costs.quantum = 50'000'000;
    return c;
}

/** Branch-free compute: deterministic cycle and instruction counts. */
sim::ComputeProfile
straightLine()
{
    sim::ComputeProfile p;
    p.branchFrac = 0.0;
    p.mispredictRate = 0.0;
    return p;
}

// ---------------------------------------------------------------------
// SyncProfile
// ---------------------------------------------------------------------

TEST(SyncProfile, InternSiteIsIdempotent)
{
    SyncProfile p;
    const CallSiteId a = p.internSite("foo/bar");
    const CallSiteId b = p.internSite("other");
    EXPECT_NE(a, b);
    EXPECT_EQ(p.internSite("foo/bar"), a);
    EXPECT_EQ(p.siteName(a), "foo/bar");
    EXPECT_EQ(p.siteName(prof::noCallSite), "?");
}

TEST(SyncProfile, AcquireReleaseAggregation)
{
    SyncProfile p;
    const CallSiteId site = p.internSite("site");
    // Two uncontended acquisitions and one contended (2 futex waits).
    p.onAcquire(0x10, "lk", site, 1, sim::invalidThread, 5, 0);
    p.onRelease(0x10, site, 50);
    p.onAcquire(0x10, "lk", site, 1, sim::invalidThread, 7, 0);
    p.onRelease(0x10, site, 70);
    p.onAcquire(0x10, "lk", site, 2, 1, 1000, 2);
    p.onRelease(0x10, site, 30);

    ASSERT_EQ(p.sites().size(), 1u);
    const prof::SyncSiteStats &s = p.sites().at({0x10, site});
    EXPECT_EQ(s.acquisitions, 3u);
    EXPECT_EQ(s.contended, 1u);
    EXPECT_EQ(s.futexWaits, 2u);
    EXPECT_EQ(s.waitCycles.totalValue(), 5u + 7u + 1000u);
    EXPECT_EQ(s.holdCycles.totalValue(), 50u + 70u + 30u);
    EXPECT_EQ(p.totalAcquisitions(), 3u);
    EXPECT_EQ(p.totalContended(), 1u);
    EXPECT_EQ(p.totalWaitCycles(), 1012u);
    EXPECT_EQ(p.totalHoldCycles(), 150u);

    // Only the contended acquisition contributes a wait edge.
    ASSERT_EQ(p.waitEdges().size(), 1u);
    const prof::WaitEdge &e = p.waitEdges().at({ThreadId(2), ThreadId(1)});
    EXPECT_EQ(e.count, 1u);
    EXPECT_EQ(e.waitCycles, 1000u);
}

TEST(SyncProfile, NoEdgeForFreeLockOrSelfOwner)
{
    SyncProfile p;
    // Contended but the owner was not observed (lock appeared free).
    p.onAcquire(0x10, "lk", prof::noCallSite, 1, sim::invalidThread, 9, 1);
    // Contended with the waiter itself recorded as owner (reentrant
    // shadow staleness) — must not self-edge.
    p.onAcquire(0x10, "lk", prof::noCallSite, 3, 3, 9, 1);
    EXPECT_TRUE(p.waitEdges().empty());
}

TEST(SyncProfile, ClassStatsMergesLocksSharingAName)
{
    SyncProfile p;
    const CallSiteId site = p.internSite("s");
    // 128-stripe style: many addresses, one class name.
    for (sim::Addr a = 0x100; a < 0x100 + 4; ++a) {
        p.onAcquire(a, "stripe", site, 1, sim::invalidThread, 10, 0);
        p.onRelease(a, site, 20);
    }
    p.onAcquire(0x900, "wal", site, 1, sim::invalidThread, 1, 0);
    p.onRelease(0x900, site, 2);

    const prof::SyncSiteStats stripes = p.classStats("stripe");
    EXPECT_EQ(stripes.acquisitions, 4u);
    EXPECT_EQ(stripes.waitCycles.totalValue(), 40u);
    EXPECT_EQ(stripes.holdCycles.totalValue(), 80u);
    const prof::SyncSiteStats wal = p.classStats("wal");
    EXPECT_EQ(wal.acquisitions, 1u);
    EXPECT_EQ(p.classStats("absent").acquisitions, 0u);
    const std::vector<std::string> names = p.classNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "stripe"); // sorted
    EXPECT_EQ(names[1], "wal");
}

TEST(SyncProfile, MergeRemapsSiteIdsByLabel)
{
    // The two profiles intern the same label under different ids (the
    // parallel-runner case: each job interns in its own order).
    SyncProfile a;
    a.internSite("first-only");
    const CallSiteId a_shared = a.internSite("shared");
    a.onAcquire(0x10, "lk", a_shared, 1, sim::invalidThread, 10, 0);

    SyncProfile b;
    const CallSiteId b_shared = b.internSite("shared");
    EXPECT_NE(a_shared, b_shared);
    b.onAcquire(0x10, "lk", b_shared, 2, sim::invalidThread, 20, 0);
    b.onAcquire(0x20, "lk2", prof::noCallSite, 2, sim::invalidThread, 1, 0);

    a.merge(b);
    // Same label lands in the same (lock, site) bucket after merge.
    const prof::SyncSiteStats &s = a.sites().at({0x10, a_shared});
    EXPECT_EQ(s.acquisitions, 2u);
    EXPECT_EQ(s.waitCycles.totalValue(), 30u);
    // noCallSite merges as noCallSite, never as an interned id.
    EXPECT_EQ(a.sites().at({0x20, prof::noCallSite}).acquisitions, 1u);
    EXPECT_EQ(a.lockNames().at(0x20), "lk2");
}

TEST(SyncProfile, LongestWaiterChainPicksHeaviestPath)
{
    SyncProfile p;
    auto edge = [&](ThreadId waiter, ThreadId owner, std::uint64_t cyc) {
        p.onAcquire(0x10, "lk", prof::noCallSite, waiter, owner, cyc, 1);
    };
    edge(3, 2, 100);
    edge(2, 1, 200);
    edge(4, 1, 50);
    const SyncProfile::Chain c = p.longestWaiterChain();
    ASSERT_EQ(c.tids.size(), 3u);
    EXPECT_EQ(c.tids[0], ThreadId(3));
    EXPECT_EQ(c.tids[1], ThreadId(2));
    EXPECT_EQ(c.tids[2], ThreadId(1));
    EXPECT_EQ(c.waitCycles, 300u);
}

TEST(SyncProfile, WaiterChainSurvivesCycles)
{
    SyncProfile p;
    // A waited on B and B waited on A (different acquisitions): the
    // DFS must not loop; the heavier direction wins.
    p.onAcquire(0x10, "lk", prof::noCallSite, 1, 2, 300, 1);
    p.onAcquire(0x10, "lk", prof::noCallSite, 2, 1, 100, 1);
    const SyncProfile::Chain c = p.longestWaiterChain();
    ASSERT_EQ(c.tids.size(), 2u);
    EXPECT_EQ(c.tids[0], ThreadId(1));
    EXPECT_EQ(c.tids[1], ThreadId(2));
    EXPECT_EQ(c.waitCycles, 300u);
}

TEST(SyncProfile, NoEdgesMeansNoChain)
{
    SyncProfile p;
    p.onAcquire(0x10, "lk", prof::noCallSite, 1, sim::invalidThread, 5, 0);
    EXPECT_TRUE(p.longestWaiterChain().tids.empty());
}

// ---------------------------------------------------------------------
// KernelProfile
// ---------------------------------------------------------------------

TEST(KernelProfile, BuildMatchesLedgerDecomposition)
{
    Machine m(cfg(2));
    Kernel k(m);
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i), [&, i](Guest &g) -> Task<void> {
            co_await g.compute(10'000 * (i + 1), straightLine());
            co_return;
        });
    }
    m.run();

    const KernelProfile p = prof::buildKernelProfile(k, {});
    ASSERT_EQ(p.threads().size(), k.numThreads());
    std::uint64_t user_cycles = 0, kernel_cycles = 0;
    for (unsigned t = 0; t < k.numThreads(); ++t) {
        const os::Thread &th = k.thread(t);
        const auto &s = p.threads().at(th.ctx.tid());
        const sim::EventLedger &ledger = th.ctx.ledger();
        EXPECT_EQ(s.name, th.ctx.name());
        EXPECT_EQ(s.userCycles,
                  ledger.count(EventType::Cycles, PrivMode::User));
        EXPECT_EQ(s.kernelCycles,
                  ledger.count(EventType::Cycles, PrivMode::Kernel));
        EXPECT_EQ(s.userInstructions,
                  ledger.count(EventType::Instructions, PrivMode::User));
        EXPECT_EQ(s.kernelInstructions,
                  ledger.count(EventType::Instructions, PrivMode::Kernel));
        EXPECT_EQ(s.voluntarySwitches, th.voluntarySwitches);
        EXPECT_EQ(s.involuntarySwitches, th.involuntarySwitches);
        user_cycles += s.userCycles;
        kernel_cycles += s.kernelCycles;
    }
    EXPECT_EQ(p.userCycles(), user_cycles);
    EXPECT_EQ(p.kernelCycles(), kernel_cycles);
    EXPECT_EQ(p.syscallCount(), 0u); // no trace records supplied
}

TEST(KernelProfile, SyscallPairingDiscardsUnmatchedRecords)
{
    Machine m(cfg());
    Kernel k(m);
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(100, straightLine());
        co_return;
    });
    m.run();

    auto rec = [](trace::TraceEvent ev, sim::Tick tick, std::uint64_t nr,
                  ThreadId tid) {
        trace::TraceRecord r;
        r.event = ev;
        r.tick = tick;
        r.a0 = nr;
        r.tid = tid;
        return r;
    };
    const ThreadId probe = 7;
    std::vector<trace::TraceRecord> recs;
    // A matched pair: latency 350.
    recs.push_back(rec(trace::TraceEvent::SyscallEnter, 100, 3, probe));
    recs.push_back(rec(trace::TraceEvent::SyscallExit, 450, 3, probe));
    // Enter whose exit carries a different nr (the list lacks the
    // matching record): both discarded.
    recs.push_back(rec(trace::TraceEvent::SyscallEnter, 500, 5, probe));
    recs.push_back(rec(trace::TraceEvent::SyscallExit, 600, 9, probe));
    // Exit with no open enter: discarded.
    recs.push_back(rec(trace::TraceEvent::SyscallExit, 700, 1, 8));
    // Two PMIs while `probe` was current.
    recs.push_back(rec(trace::TraceEvent::PmiDelivered, 800, 0, probe));
    recs.push_back(rec(trace::TraceEvent::PmiDelivered, 900, 0, probe));

    const KernelProfile p = prof::buildKernelProfile(k, recs);
    const auto &s = p.threads().at(probe);
    ASSERT_EQ(s.syscalls.size(), 1u);
    const prof::SyscallStats &sc = s.syscalls.at(3);
    EXPECT_EQ(sc.calls, 1u);
    EXPECT_EQ(sc.latencyCycles.totalValue(), 350u);
    EXPECT_EQ(s.pmis, 2u);
    EXPECT_EQ(p.syscallCount(), 1u);
    EXPECT_EQ(p.pmis(), 2u);
}

TEST(KernelProfile, MergeFoldsThreadsByTid)
{
    KernelProfile a, b;
    a.thread(1).userCycles = 100;
    a.thread(1).syscalls[3].calls = 1;
    a.thread(1).syscalls[3].latencyCycles.add(10);
    b.thread(1).userCycles = 50;
    b.thread(1).syscalls[3].calls = 2;
    b.thread(1).syscalls[3].latencyCycles.add(20, 2);
    b.thread(2).kernelCycles = 7;
    a.merge(b);
    EXPECT_EQ(a.threads().at(1).userCycles, 150u);
    EXPECT_EQ(a.threads().at(1).syscalls.at(3).calls, 3u);
    EXPECT_EQ(a.threads().at(1).syscalls.at(3).latencyCycles.totalCount(),
              3u);
    EXPECT_EQ(a.threads().at(2).kernelCycles, 7u);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

TEST(Report, SameNameAddsMergeIntoOneSection)
{
    SyncProfile run1, run2;
    const CallSiteId s1 = run1.internSite("s");
    run1.onAcquire(0x10, "lk", s1, 1, sim::invalidThread, 10, 0);
    const CallSiteId s2 = run2.internSite("s");
    run2.onAcquire(0x10, "lk", s2, 1, sim::invalidThread, 20, 0);

    prof::Report r;
    r.addSync("app", run1, 1000, 5);
    r.addSync("app", run2, 3000, 7);
    r.addSync("other", run1, 10, 1);

    ASSERT_EQ(r.syncSections().size(), 2u);
    const prof::Report::SyncSection *app = r.sync("app");
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->runs, 2u);
    EXPECT_EQ(app->totalCycles, 4000u);
    EXPECT_EQ(app->workItems, 12u);
    EXPECT_EQ(app->profile.totalAcquisitions(), 2u);
    EXPECT_EQ(r.sync("missing"), nullptr);
}

TEST(Report, JsonIsDeterministicAndCarriesSchema)
{
    auto build = [] {
        prof::Report r;
        r.meta("bench", "unit");
        r.meta("seeds", std::uint64_t(3));
        SyncProfile p;
        const CallSiteId s = p.internSite("site");
        p.onAcquire(0x10, "lk", s, 2, 1, 100, 1);
        p.onRelease(0x10, s, 40);
        r.addSync("app", p, 500, 1);
        KernelProfile kp;
        kp.thread(0).userInstructions = 90;
        kp.thread(0).kernelInstructions = 10;
        r.addKernel("app", kp, 89, 10);
        return r.toJson();
    };
    const std::string a = build();
    EXPECT_EQ(a, build());
    EXPECT_NE(a.find("\"schema\": \"limitpp-profile-v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"bench\": \"unit\""), std::string::npos);
    EXPECT_NE(a.find("\"pec_user_instructions\": 89"), std::string::npos);
    EXPECT_NE(a.find("\"wait_edges\""), std::string::npos);
}

TEST(Report, KernelMarkdownSortsByKernelShare)
{
    KernelProfile mostly_user, mostly_kernel;
    mostly_user.thread(0).userInstructions = 900;
    mostly_user.thread(0).kernelInstructions = 100;
    mostly_kernel.thread(0).userInstructions = 100;
    mostly_kernel.thread(0).kernelInstructions = 900;

    prof::Report r;
    r.addKernel("light", mostly_user, 900, 100);
    r.addKernel("heavy", mostly_kernel, 100, 900);
    const std::string md = r.kernelMarkdown();
    EXPECT_NE(md.find("| workload |"), std::string::npos);
    EXPECT_LT(md.find("heavy"), md.find("light"));
}

TEST(Report, SyncSummaryMarkdownDividesCountsPerRun)
{
    SyncProfile p;
    const CallSiteId s = p.internSite("site");
    for (int i = 0; i < 6; ++i)
        p.onAcquire(0x10, "lk", s, 1, sim::invalidThread, 0, 0);
    // Two runs (six acquisitions total) → the table shows the
    // per-run mean, 3.
    prof::Report r;
    r.addSync("app", p, 100, 0);
    r.addSync("app", SyncProfile(), 100, 0);
    const std::string md = r.syncSummaryMarkdown();
    EXPECT_NE(md.find("| app |"), std::string::npos);
    EXPECT_NE(md.find("| 3 |"), std::string::npos);
}

// ---------------------------------------------------------------------
// E6 pin: the critical-section histogram against a hand-computed
// ledger on a tiny deterministic workload
// ---------------------------------------------------------------------

TEST(E6Pin, HoldHistogramMatchesLedgerComputedDeltas)
{
    Machine m(cfg());
    Kernel k(m);
    PecSession s(k);
    s.addEvent(0, EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler profiler(s, rc);
    workloads::InstrumentedMutex residue_lock(0x1000, "pin.residue",
                                              m.regions());
    workloads::InstrumentedMutex body_lock(0x2000, "pin.body",
                                           m.regions());
    SyncProfile sync;
    for (workloads::InstrumentedMutex *mx : {&residue_lock, &body_lock}) {
        mx->attachProfiler(&profiler);
        mx->attachSyncProfile(&sync);
    }
    const CallSiteId site = sync.internSite("E6Pin/body");

    // Distinct, deterministic critical-section lengths.
    constexpr std::uint64_t bodies[] = {33,  100,  257,  513,
                                        900, 1024, 2048, 4096};
    constexpr int visits = static_cast<int>(std::size(bodies));
    std::uint64_t ledger_body[visits] = {};

    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await profiler.calibrate(g);
        // Phase 1: empty critical sections measure the constant
        // per-visit residue (the region-marker instructions the
        // calibrated read pair does not cover).
        for (int i = 0; i < visits; ++i) {
            co_await residue_lock.lock(g, site);
            co_await residue_lock.unlock(g);
        }
        // Phase 2: known bodies, each bracketed by host-side ledger
        // reads at exactly the attribution boundaries.
        auto cycles = [&] {
            const sim::EventLedger &ledger = k.thread(0).ctx.ledger();
            return ledger.count(EventType::Cycles, PrivMode::User) +
                ledger.count(EventType::Cycles, PrivMode::Kernel);
        };
        for (int i = 0; i < visits; ++i) {
            co_await body_lock.lock(g, site);
            const std::uint64_t before = cycles();
            co_await g.compute(bodies[i], straightLine());
            ledger_body[i] = cycles() - before;
            co_await body_lock.unlock(g);
        }
        co_return;
    });
    m.run();
    ASSERT_TRUE(profiler.calibrated());

    // The residue is a cost-model constant: every empty visit must
    // have produced the identical sample.
    const prof::SyncSiteStats residue = sync.classStats("pin.residue");
    ASSERT_EQ(residue.holdCycles.totalCount(),
              static_cast<std::uint64_t>(visits));
    ASSERT_EQ(residue.holdCycles.minValue(), residue.holdCycles.maxValue());
    const std::uint64_t marker_residue = residue.holdCycles.minValue();

    // Straight-line compute at CPI 1 costs exactly its instruction
    // count — the ledger confirms the hand computation.
    for (int i = 0; i < visits; ++i)
        EXPECT_EQ(ledger_body[i], bodies[i]) << "visit " << i;

    // Pin: the recorded hold histogram equals, bucket for bucket, the
    // histogram of ledger-computed body cycles plus the residue.
    stats::HdrHistogram expected;
    for (int i = 0; i < visits; ++i)
        expected.add(ledger_body[i] + marker_residue);
    const prof::SyncSiteStats body = sync.classStats("pin.body");
    EXPECT_EQ(body.holdCycles, expected);

    // Single-threaded: never contended, constant acquisition cost.
    EXPECT_EQ(body.acquisitions, static_cast<std::uint64_t>(visits));
    EXPECT_EQ(body.contended, 0u);
    EXPECT_EQ(body.futexWaits, 0u);
    EXPECT_EQ(body.waitCycles.minValue(), body.waitCycles.maxValue());
    EXPECT_TRUE(sync.waitEdges().empty());

    // The attribution key is (lock address, acquire call site).
    EXPECT_EQ(sync.sites().count({0x2000, site}), 1u);
    EXPECT_EQ(sync.lockNames().at(0x2000), "pin.body");
}

} // namespace
} // namespace limit

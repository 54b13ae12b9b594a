/**
 * @file
 * Fault-injection subsystem tests: plan grammar round-trips and error
 * paths, each injection site's observable effect on a live machine,
 * trace emission, and the Explorer's bounded exactness proof (safe
 * policies survive every enumerated interleaving; naive-sum does not).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/bundle.hh"
#include "fault/explorer.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sync/mutex.hh"
#include "trace/trace.hh"

namespace limit {
namespace {

using fault::FaultSpec;
using fault::Plan;
using fault::PlanController;
using fault::Site;
using sim::EventType;
using sim::Guest;
using sim::PrivMode;
using sim::Task;

// ---------------------------------------------------------------------
// Plan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesSingleItemWithDefaults)
{
    Plan p;
    std::string err;
    ASSERT_TRUE(Plan::parse("preempt-read", p, err)) << err;
    ASSERT_EQ(p.specs().size(), 1u);
    EXPECT_EQ(p.specs()[0].site, Site::PreemptRead);
    EXPECT_EQ(p.specs()[0].step, 1u);
    EXPECT_EQ(p.specs()[0].nth, 1u);
}

TEST(FaultPlan, ParsesKeysAndMultipleItems)
{
    Plan p;
    std::string err;
    ASSERT_TRUE(Plan::parse(
                    "overflow-read:step=2:ctr=1:margin=4:nth=3;"
                    "stall-syscall:nr=5:ticks=9000;"
                    "corrupt-save:value=123",
                    p, err))
        << err;
    ASSERT_EQ(p.specs().size(), 3u);
    const FaultSpec &o = p.specs()[0];
    EXPECT_EQ(o.site, Site::OverflowRead);
    EXPECT_EQ(o.step, 2u);
    EXPECT_EQ(o.ctr, 1u);
    EXPECT_EQ(o.margin, 4u);
    EXPECT_EQ(o.nth, 3u);
    const FaultSpec &s = p.specs()[1];
    EXPECT_EQ(s.site, Site::StallSyscall);
    EXPECT_EQ(s.nr, 5u);
    EXPECT_EQ(s.ticks, 9000u);
    const FaultSpec &c = p.specs()[2];
    EXPECT_EQ(c.site, Site::CorruptSave);
    EXPECT_EQ(c.value, 123u);
}

TEST(FaultPlan, StrRoundTripsThroughParse)
{
    Plan p;
    std::string err;
    const std::string text =
        "overflow-read:step=2:margin=4:nth=3;spurious-wake:ticks=777";
    ASSERT_TRUE(Plan::parse(text, p, err)) << err;
    const std::string printed = p.str();
    Plan again;
    ASSERT_TRUE(Plan::parse(printed, again, err)) << err;
    EXPECT_EQ(again.str(), printed);
    ASSERT_EQ(again.specs().size(), 2u);
    EXPECT_EQ(again.specs()[0].margin, 4u);
    EXPECT_EQ(again.specs()[1].ticks, 777u);
}

TEST(FaultPlan, RejectsBadInput)
{
    Plan p;
    std::string err;

    EXPECT_FALSE(Plan::parse("", p, err));
    EXPECT_NE(err.find("empty"), std::string::npos);

    EXPECT_FALSE(Plan::parse("warp-core-breach", p, err));
    EXPECT_NE(err.find("unknown fault site"), std::string::npos);

    EXPECT_FALSE(Plan::parse("preempt-read:wibble=1", p, err));
    EXPECT_NE(err.find("unknown key"), std::string::npos);

    EXPECT_FALSE(Plan::parse("preempt-read:step=abc", p, err));
    EXPECT_NE(err.find("bad value"), std::string::npos);

    EXPECT_FALSE(Plan::parse("preempt-read:step=-1", p, err));
    EXPECT_FALSE(Plan::parse("preempt-read:step=9", p, err));
    EXPECT_FALSE(Plan::parse("overflow-read:margin=0", p, err));
    EXPECT_FALSE(Plan::parse("preempt-read;;overflow-read", p, err));
    EXPECT_FALSE(Plan::parse("preempt-read:step", p, err));
}

TEST(FaultPlan, SiteNamesRoundTrip)
{
    for (unsigned s = 0; s < fault::numSites; ++s) {
        const auto site = static_cast<Site>(s);
        Site parsed = Site::NumSites;
        ASSERT_TRUE(fault::parseSite(fault::siteName(site), parsed));
        EXPECT_EQ(parsed, site);
    }
    Site parsed = Site::NumSites;
    EXPECT_FALSE(fault::parseSite("?", parsed));
    EXPECT_FALSE(fault::parseSite("", parsed));
}

// ---------------------------------------------------------------------
// Site behaviour on a live machine
// ---------------------------------------------------------------------

/** Bundle + session + two pinned threads on one core. */
struct FaultRig
{
    analysis::SimBundle bundle;
    pec::PecSession session;
    bool done = false;

    explicit FaultRig(pec::OverflowPolicy policy,
                      unsigned counter_width = 48,
                      sim::Tick quantum = 50'000,
                      bool traced = false)
        : bundle(analysis::BundleOptions::Builder()
                     .cores(1)
                     .quantum(quantum)
                     .pmuWidth(counter_width)
                     .seed(7)
                     .trace(traced)
                     .build()),
          session(bundle.kernel(), {.policy = policy})
    {
        session.addEvent(0, EventType::Instructions, true, false);
    }

    void
    spawnCompetitor()
    {
        bundle.kernel().spawn(
            "competitor", [this](Guest &g) -> Task<void> {
                while (!done && !g.shouldStop())
                    co_await g.compute(40);
            });
    }
};

TEST(FaultSites, PreemptReadForcesInvoluntarySwitchInWindow)
{
    FaultRig rig(pec::OverflowPolicy::DoubleCheck);
    rig.bundle.kernel().spawn(
        "victim", [&](Guest &g) -> Task<void> {
            co_await g.compute(500);
            const std::uint64_t v = co_await rig.session.read(g, 0);
            (void)v;
            rig.done = true;
        });
    rig.spawnCompetitor();

    Plan plan;
    FaultSpec p;
    p.site = Site::PreemptRead;
    p.step = 1; // AfterAccumLoad: switch lands right after the rdpmc
    plan.add(p);
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injected(), 1u);
    EXPECT_EQ(ctl.injectedAt(Site::PreemptRead), 1u);
    // The reader was descheduled mid-window (an involuntary switch it
    // would not otherwise take this early)...
    EXPECT_GE(rig.bundle.kernel().thread(0).involuntarySwitches, 1u);
    // ...and counter virtualization held: the final harvest still
    // equals the ground-truth ledger despite the forced switch.
    EXPECT_EQ(rig.session.threadTotal(rig.bundle.kernel().thread(0), 0),
              rig.bundle.kernel().thread(0).ctx.ledger().count(
                  EventType::Instructions, PrivMode::User));
}

TEST(FaultSites, OverflowReadUndercountsNaiveSumByWrapModulus)
{
    constexpr unsigned width = 16;
    auto run = [&](pec::OverflowPolicy policy, std::uint64_t &got,
                   std::uint64_t &want) {
        FaultRig rig(policy, width);
        rig.bundle.kernel().spawn(
            "victim", [&](Guest &g) -> Task<void> {
                co_await g.compute(500);
                const std::uint64_t v = co_await rig.session.read(g, 0);
                got = v;
                rig.done = true;
            });
        rig.spawnCompetitor();

        Plan plan;
        FaultSpec o;
        o.site = Site::OverflowRead;
        o.step = 1; // between the accumulator load and the rdpmc
        o.margin = 1;
        plan.add(o);
        PlanController ctl(rig.bundle.machine(), plan);
        rig.bundle.machine().setFaults(&ctl);
        rig.bundle.machine().run();

        EXPECT_EQ(ctl.injectedAt(Site::OverflowRead), 1u);
        // What an exact read must have returned: every user
        // instruction retired before the rdpmc, plus the injected
        // jump. The victim performs no instructions after the read
        // except `compute(6)`-style tail work, so compare against the
        // final ledger minus that tail — simpler: harvest now.
        want = rig.session.threadTotal(rig.bundle.kernel().thread(0), 0);
    };

    std::uint64_t naive_got = 0, naive_want = 0;
    run(pec::OverflowPolicy::NaiveSum, naive_got, naive_want);
    // The wrap landed between the two halves: naive-sum lost exactly
    // one wrap modulus.
    EXPECT_LT(naive_got, naive_want);

    std::uint64_t dc_got = 0, dc_want = 0;
    run(pec::OverflowPolicy::DoubleCheck, dc_got, dc_want);
    std::uint64_t kf_got = 0, kf_want = 0;
    run(pec::OverflowPolicy::KernelFixup, kf_got, kf_want);
    // Safe policies: the read equals the harvest minus only the
    // instructions retired after the read returned (tail compute +
    // exit). Both must NOT show a wrap-sized loss.
    EXPECT_LT(dc_want - dc_got, 1ull << width);
    EXPECT_LT(kf_want - kf_got, 1ull << width);
}

TEST(FaultSites, DropPmiLosesOneWrapFromTheAccumulator)
{
    constexpr unsigned width = 16;
    FaultRig rig(pec::OverflowPolicy::DoubleCheck, width);
    rig.bundle.kernel().spawn("victim", [&](Guest &g) -> Task<void> {
        // Enough work to wrap the 16-bit counter several times.
        for (int i = 0; i < 40; ++i)
            co_await g.compute(20'000);
        rig.done = true;
    });

    Plan plan;
    FaultSpec d;
    d.site = Site::DropPmi;
    d.nth = 2;
    plan.add(d);
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injectedAt(Site::DropPmi), 1u);
    const std::uint64_t harvested =
        rig.session.threadTotal(rig.bundle.kernel().thread(0), 0);
    const std::uint64_t truth =
        rig.bundle.kernel().thread(0).ctx.ledger().count(
            EventType::Instructions, PrivMode::User);
    // Exactly one wrap modulus vanished with the dropped PMI.
    EXPECT_EQ(truth - harvested, 1ull << width);
}

TEST(FaultSites, DelayPmiIsEventuallyExact)
{
    constexpr unsigned width = 16;
    FaultRig rig(pec::OverflowPolicy::DoubleCheck, width);
    rig.bundle.kernel().spawn("victim", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 40; ++i)
            co_await g.compute(20'000);
        rig.done = true;
    });

    Plan plan;
    FaultSpec d;
    d.site = Site::DelayPmi;
    d.nth = 2;
    d.ticks = 100'000;
    plan.add(d);
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injectedAt(Site::DelayPmi), 1u);
    // The held PMI was delivered before the run ended, so the final
    // harvest is exact again (delay perturbs, drop destroys).
    EXPECT_EQ(rig.session.threadTotal(rig.bundle.kernel().thread(0), 0),
              rig.bundle.kernel().thread(0).ctx.ledger().count(
                  EventType::Instructions, PrivMode::User));
}

TEST(FaultSites, CorruptSaveIsVisibleInTheHarvest)
{
    FaultRig rig(pec::OverflowPolicy::DoubleCheck);
    rig.bundle.kernel().spawn("victim", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 40; ++i) {
            co_await g.compute(2'000);
            co_await g.syscall(os::sysYield);
        }
        rig.done = true;
    });
    rig.spawnCompetitor();

    Plan plan;
    FaultSpec c;
    c.site = Site::CorruptSave;
    c.value = 1'000'000'000;
    c.nth = 3;
    plan.add(c);
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injectedAt(Site::CorruptSave), 1u);
    // Which thread's save got corrupted depends on switch order; the
    // process-wide harvest must disagree with the process-wide ledger.
    std::uint64_t truth = 0;
    for (unsigned t = 0; t < rig.bundle.kernel().numThreads(); ++t) {
        truth += rig.bundle.kernel().thread(t).ctx.ledger().count(
            EventType::Instructions, PrivMode::User);
    }
    EXPECT_NE(rig.session.processTotal(0), truth);
}

TEST(FaultSites, SkipRestoreLeaksTheOtherThreadsEvents)
{
    FaultRig rig(pec::OverflowPolicy::DoubleCheck);
    rig.bundle.kernel().spawn("victim", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 40; ++i) {
            co_await g.compute(2'000);
            co_await g.syscall(os::sysYield);
        }
        rig.done = true;
    });
    rig.spawnCompetitor();

    Plan plan;
    FaultSpec s;
    s.site = Site::SkipRestore;
    s.nth = 3;
    plan.add(s);
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injectedAt(Site::SkipRestore), 1u);
    std::uint64_t truth = 0;
    for (unsigned t = 0; t < rig.bundle.kernel().numThreads(); ++t) {
        truth += rig.bundle.kernel().thread(t).ctx.ledger().count(
            EventType::Instructions, PrivMode::User);
    }
    EXPECT_NE(rig.session.processTotal(0), truth);
}

TEST(FaultSites, StallSyscallChargesExtraKernelCycles)
{
    auto run = [](bool stall) {
        analysis::SimBundle b(analysis::BundleOptions::Builder()
                                  .cores(1)
                                  .seed(3)
                                  .build());
        b.kernel().spawn("caller", [](Guest &g) -> Task<void> {
            for (int i = 0; i < 10; ++i)
                co_await g.syscall(os::sysNop);
        });
        Plan plan;
        FaultSpec s;
        s.site = Site::StallSyscall;
        s.nr = os::sysNop;
        s.ticks = 50'000;
        s.nth = 4;
        plan.add(s);
        PlanController ctl(b.machine(), plan);
        if (stall)
            b.machine().setFaults(&ctl);
        b.machine().run();
        return b.kernel().thread(0).ctx.ledger().count(
            EventType::Cycles, PrivMode::Kernel);
    };
    const std::uint64_t plain = run(false);
    const std::uint64_t stalled = run(true);
    EXPECT_EQ(stalled - plain, 50'000u);
}

TEST(FaultSites, SpuriousWakeReleasesAFutexWaiterEarly)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(2)
                              .seed(5)
                              .build());
    std::uint64_t waiter_result = 99;
    auto word = std::make_unique<std::uint64_t>(0);
    b.kernel().spawn("waiter", [&](Guest &g) -> Task<void> {
        const std::uint64_t r = co_await g.syscall(
            os::sysFutexWait,
            {0, 0, reinterpret_cast<std::uint64_t>(word.get()), 0});
        waiter_result = r;
    });
    // No waker thread at all: without the injected spurious wake this
    // run would deadlock (the kernel would panic on no-runnable).
    Plan plan;
    FaultSpec s;
    s.site = Site::SpuriousWake;
    s.ticks = 30'000;
    plan.add(s);
    PlanController ctl(b.machine(), plan);
    b.machine().setFaults(&ctl);
    b.machine().run();

    EXPECT_EQ(ctl.injectedAt(Site::SpuriousWake), 1u);
    // The waiter observed a plain successful wait — spurious wakeups
    // are indistinguishable from real ones, which is why correct code
    // re-checks its predicate in a loop.
    EXPECT_EQ(waiter_result, 0u);
}

TEST(FaultSites, EveryInjectionEmitsATraceRecord)
{
    FaultRig rig(pec::OverflowPolicy::DoubleCheck, 16, 50'000,
                 /*traced=*/true);
    rig.bundle.kernel().spawn("victim", [&](Guest &g) -> Task<void> {
        co_await g.compute(500);
        const std::uint64_t v = co_await rig.session.read(g, 0);
        (void)v;
        for (int i = 0; i < 4; ++i)
            co_await g.syscall(os::sysNop);
        rig.done = true;
    });
    rig.spawnCompetitor();

    Plan plan;
    std::string err;
    ASSERT_TRUE(Plan::parse(
        "preempt-read:step=1;overflow-read:step=1;"
        "stall-syscall:nr=0:ticks=1000:nth=2",
        plan, err))
        << err;
    PlanController ctl(rig.bundle.machine(), plan);
    rig.bundle.machine().setFaults(&ctl);
    rig.bundle.machine().run();

    EXPECT_EQ(ctl.injected(), 3u);
    ASSERT_NE(rig.bundle.tracer(), nullptr);
    EXPECT_EQ(rig.bundle.tracer()->count(
                  trace::TraceEvent::FaultInjected),
              ctl.injected());
    EXPECT_EQ(rig.bundle.tracer()->categoryCount(
                  trace::TraceCategory::Fault),
              ctl.injected());
}

TEST(FaultSites, NthZeroFiresEveryTime)
{
    analysis::SimBundle b(analysis::BundleOptions::Builder()
                              .cores(1)
                              .seed(3)
                              .build());
    b.kernel().spawn("caller", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 7; ++i)
            co_await g.syscall(os::sysNop);
    });
    Plan plan;
    FaultSpec s;
    s.site = Site::StallSyscall;
    s.nr = os::sysNop;
    s.ticks = 10;
    s.nth = 0;
    plan.add(s);
    PlanController ctl(b.machine(), plan);
    b.machine().setFaults(&ctl);
    b.machine().run();
    EXPECT_EQ(ctl.injectedAt(Site::StallSyscall), 7u);
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

TEST(Explorer, SafePoliciesSurviveEveryBoundedInterleaving)
{
    for (const auto policy : {pec::OverflowPolicy::DoubleCheck,
                              pec::OverflowPolicy::KernelFixup}) {
        fault::ExplorerOptions o;
        o.policy = policy;
        const fault::ExplorerResult r = fault::explore(o);
        // (1 + steps*reads)^2 runs; both policies visit >= 3 steps.
        EXPECT_GE(r.interleavings, 100u) << pec::policyName(policy);
        EXPECT_GT(r.injected, 0u) << pec::policyName(policy);
        EXPECT_EQ(r.violations, 0u)
            << pec::policyName(policy) << " failing plan: "
            << (r.failingPlans.empty() ? "-" : r.failingPlans[0]);
    }
}

TEST(Explorer, NaiveSumBreaksUnderOverflowInWindow)
{
    fault::ExplorerOptions o;
    o.policy = pec::OverflowPolicy::NaiveSum;
    const fault::ExplorerResult r = fault::explore(o);
    EXPECT_GT(r.violations, 0u);
    ASSERT_FALSE(r.failingPlans.empty());
    // Every failing run must involve the overflow fault — preemption
    // alone cannot break naive-sum (virtualization covers it).
    for (const std::string &f : r.failingPlans)
        EXPECT_NE(f.find("overflow-read"), std::string::npos) << f;
}

TEST(Explorer, PolicyNoneIsExactModuloWidth)
{
    fault::ExplorerOptions o;
    o.policy = pec::OverflowPolicy::None;
    const fault::ExplorerResult r = fault::explore(o);
    // A bare rdpmc only promises the count modulo 2^width; within
    // that contract, no interleaving can break it.
    EXPECT_EQ(r.violations, 0u)
        << (r.failingPlans.empty() ? "-" : r.failingPlans[0]);
}

TEST(Explorer, DeterministicAcrossRepeats)
{
    fault::ExplorerOptions o;
    o.policy = pec::OverflowPolicy::NaiveSum;
    const fault::ExplorerResult a = fault::explore(o);
    const fault::ExplorerResult b = fault::explore(o);
    EXPECT_EQ(a.interleavings, b.interleavings);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.failingPlans, b.failingPlans);
}

} // namespace
} // namespace limit

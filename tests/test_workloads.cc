/**
 * @file
 * Integration tests for the synthetic applications: each one runs,
 * makes progress, shuts down cleanly (no deadlock), and exhibits the
 * structural properties its case study depends on.
 */

#include <gtest/gtest.h>

#include "analysis/bundle.hh"
#include "pec/pec.hh"
#include "workloads/browser.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"
#include "workloads/webserver.hh"

namespace limit {
namespace {

using analysis::BundleOptions;
using analysis::SimBundle;
using sim::EventType;
using sim::PrivMode;

BundleOptions
opts(unsigned cores = 4)
{
    return BundleOptions::builder()
        .cores(cores)
        .quantum(200'000)
        .build();
}

TEST(Oltp, RunsAndCommits)
{
    SimBundle b(opts());
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 7);
    oltp.spawn();
    b.run(3'000'000);
    EXPECT_GT(oltp.committed(), 50u);
    EXPECT_GE(oltp.operations(), oltp.committed());
    // Write transactions took locks.
    std::uint64_t acquisitions = oltp.walLock().acquisitions();
    for (const auto &s : oltp.stripeLocks())
        acquisitions += s->acquisitions();
    EXPECT_GT(acquisitions, 20u);
}

TEST(Oltp, RangeScansAndSplitsExerciseIndexLatch)
{
    SimBundle b(opts());
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    cfg.readRatio = 0.3; // write-heavy so splits occur
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 7);
    oltp.spawn();
    b.run(6'000'000);
    EXPECT_GT(oltp.scans(), 20u);
    EXPECT_GT(oltp.splits(), 3u);
    EXPECT_GT(oltp.committed(), 50u);
    // Scans load scanSpan rows each: loads scale with scan count.
    const auto loads = analysis::totalEvent(
        b.kernel(), EventType::Loads, PrivMode::User);
    EXPECT_GT(loads, oltp.scans() * workloads::OltpConfig::scanSpan);
}

TEST(Oltp, NetworkIoPutsTimeInKernel)
{
    SimBundle b(opts());
    workloads::OltpConfig cfg;
    cfg.clients = 4;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 7);
    oltp.spawn();
    b.run(3'000'000);
    const auto k = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::Kernel);
    const auto u = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::User);
    EXPECT_GT(k, 0u);
    EXPECT_GT(u, 0u);
    // Socket-fed DB: nontrivial kernel share, but user still dominant.
    EXPECT_GT(analysis::percentOf(k, k + u), 5.0);
}

TEST(Oltp, DeterministicAcrossRuns)
{
    auto run_once = [] {
        SimBundle b(opts());
        workloads::OltpConfig cfg;
        cfg.clients = 4;
        workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 7);
        oltp.spawn();
        b.run(2'000'000);
        return oltp.committed();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Oltp, ProfiledLocksProduceStats)
{
    SimBundle b(opts());
    pec::PecSession session(b.kernel());
    session.addEvent(0, EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(session, rc);

    workloads::OltpConfig cfg;
    cfg.clients = 6;
    cfg.readRatio = 0.2; // write-heavy: lots of locking
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 7);
    oltp.attachProfiler(&prof);
    oltp.spawn();
    b.run(3'000'000);

    const auto &held = prof.stats(oltp.walLock().heldRegion());
    const auto &acq = prof.stats(oltp.walLock().acquireRegion());
    EXPECT_GT(held.entries, 10u);
    EXPECT_EQ(held.entries, acq.entries);
    // WAL critical sections are short: hundreds of cycles on average.
    EXPECT_GT(held.mean(0), 50.0);
    EXPECT_LT(held.mean(0), 20'000.0);
}

TEST(Web, ServesRequestsAndShutsDown)
{
    SimBundle b(opts());
    workloads::WebConfig cfg;
    cfg.workers = 6;
    workloads::WebServer web(b.machine(), b.kernel(), cfg, 11);
    web.spawn();
    b.run(4'000'000);
    EXPECT_GT(web.served(), 30u);
    EXPECT_GT(web.cacheMisses(), 0u);
    EXPECT_LT(web.cacheMisses(), web.served());
}

TEST(Web, KernelInstructionShareIsLarge)
{
    SimBundle b(opts());
    workloads::WebConfig cfg;
    cfg.workers = 6;
    workloads::WebServer web(b.machine(), b.kernel(), cfg, 11);
    web.spawn();
    b.run(4'000'000);
    const auto k = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::Kernel);
    const auto u = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::User);
    // Network-bound server: kernel executes a large share (paper's
    // observation about server workloads).
    EXPECT_GT(analysis::percentOf(k, k + u), 25.0);
}

TEST(Browser, HandlesEventsOfAllKinds)
{
    SimBundle b(opts());
    workloads::BrowserConfig cfg;
    workloads::BrowserLoop browser(b.machine(), b.kernel(), cfg, 13);
    browser.spawn();
    b.run(6'000'000);
    EXPECT_GT(browser.totalEvents(), 100u);
    for (unsigned i = 0; i < workloads::numBrowserEvents; ++i) {
        EXPECT_GT(browser.eventsHandled(
                      static_cast<workloads::BrowserEvent>(i)),
                  0u)
            << browserEventName(static_cast<workloads::BrowserEvent>(i));
    }
    EXPECT_GT(browser.decodesDone(), 0u);
}

TEST(Browser, MostlyUserMode)
{
    SimBundle b(opts());
    workloads::BrowserConfig cfg;
    workloads::BrowserLoop browser(b.machine(), b.kernel(), cfg, 13);
    browser.spawn();
    b.run(6'000'000);
    const auto k = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::Kernel);
    const auto u = analysis::totalEvent(b.kernel(),
                                        EventType::Instructions,
                                        PrivMode::User);
    // Interactive client app: user-dominated (vs. the web server).
    EXPECT_GT(analysis::percentOf(u, k + u), 55.0);
}

TEST(Browser, ProfiledHandlersHaveDistinctCosts)
{
    SimBundle b(opts());
    pec::PecSession session(b.kernel());
    session.addEvent(0, EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(session, rc);

    workloads::BrowserConfig cfg;
    workloads::BrowserLoop browser(b.machine(), b.kernel(), cfg, 13);
    browser.attachProfiler(&prof);
    browser.spawn();
    b.run(8'000'000);

    using workloads::BrowserEvent;
    const double input_cost =
        prof.stats(browser.handlerRegion(BrowserEvent::Input)).mean(0);
    const double script_cost =
        prof.stats(browser.handlerRegion(BrowserEvent::Script)).mean(0);
    const double layout_cost =
        prof.stats(browser.handlerRegion(BrowserEvent::Layout)).mean(0);
    EXPECT_GT(input_cost, 0.0);
    // Scripts and layout are much heavier than input handling.
    EXPECT_GT(script_cost, input_cost * 2);
    EXPECT_GT(layout_cost, input_cost * 2);
}

TEST(Kernels, AllFlavoursMakeProgress)
{
    for (auto kind :
         {workloads::KernelKind::Stream, workloads::KernelKind::PtrChase,
          workloads::KernelKind::MatMul,
          workloads::KernelKind::SortLike}) {
        SimBundle b(opts(1));
        workloads::ComputeKernel k(b.kernel(), kind, 8 * 1024 * 1024,
                                   17);
        k.spawn();
        b.run(2'000'000);
        EXPECT_GT(k.iterations(), 10u) << kernelName(kind);
    }
}

TEST(Kernels, PtrChaseMissesMoreThanMatMul)
{
    auto miss_rate = [](workloads::KernelKind kind) {
        SimBundle b(opts(1));
        workloads::ComputeKernel k(b.kernel(), kind, 16 * 1024 * 1024,
                                   17);
        k.spawn();
        b.run(2'000'000);
        const auto misses =
            analysis::totalEvent(b.kernel(), EventType::L1DMiss);
        const auto loads =
            analysis::totalEvent(b.kernel(), EventType::Loads);
        return analysis::percentOf(misses, loads);
    };
    const double chase = miss_rate(workloads::KernelKind::PtrChase);
    const double matmul = miss_rate(workloads::KernelKind::MatMul);
    EXPECT_GT(chase, matmul * 5);
}

TEST(Kernels, SortLikeMispredictsMoreThanStream)
{
    auto mpki = [](workloads::KernelKind kind) {
        SimBundle b(opts(1));
        workloads::ComputeKernel k(b.kernel(), kind, 8 * 1024 * 1024,
                                   17);
        k.spawn();
        b.run(2'000'000);
        const auto misses =
            analysis::totalEvent(b.kernel(), EventType::BranchMisses,
                                 PrivMode::User);
        const auto instrs =
            analysis::totalEvent(b.kernel(), EventType::Instructions,
                                 PrivMode::User);
        return 1000.0 * static_cast<double>(misses) /
               static_cast<double>(instrs);
    };
    EXPECT_GT(mpki(workloads::KernelKind::SortLike),
              mpki(workloads::KernelKind::Stream) * 5);
}

} // namespace
} // namespace limit

/**
 * @file
 * Shared plumbing for the synchronization case-study benches (E5/E6):
 * run each application analogue with cycle-precise lock
 * instrumentation and return its per-call-site prof::SyncProfile.
 *
 * The per-bench LockClassStats/collectLock aggregation helpers that
 * used to live here are gone: all aggregation now happens in
 * prof::SyncProfile / prof::Report (one path for tables, markdown,
 * and the --profile JSON artifact).
 */

#ifndef LIMIT_BENCH_SYNC_COMMON_HH
#define LIMIT_BENCH_SYNC_COMMON_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/args.hh"
#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "base/logging.hh"
#include "fault/plan.hh"
#include "pec/pec.hh"
#include "prof/report.hh"
#include "prof/sync_profile.hh"
#include "workloads/browser.hh"
#include "workloads/oltp.hh"
#include "workloads/webserver.hh"

namespace limit::benchsync {

/** One instrumented application run. */
struct SyncRunResult
{
    std::string app;
    sim::Tick wallTicks = 0;
    std::uint64_t totalCycles = 0; // user+kernel, all threads
    std::uint64_t workItems = 0;   // txns / requests / events
    prof::SyncProfile sync;
};

/**
 * Run one app with lock instrumentation for `ticks`. `seed` offsets
 * the workload RNG (0 reproduces the historical tables). `args`
 * installs its --faults plan on the machine, so E5 and E6 run the
 * plan, as E13 and E15 do; the other simulated benches only validate
 * it. A non-null `report` marks this the dedicated representative run
 * of `bench`: it records what `args` requests and writes the
 * artifacts, with `report` as the profile, before returning (fan-out
 * jobs pass nullptr and stay uninstrumented). When it traces, the PMU
 * counters narrow to 22 bits, so the cycle counter wraps every ~4.2M
 * cycles and the trace shows overflow PMIs alongside switches and
 * futex traffic; the published tables always come from full-width
 * runs.
 */
inline SyncRunResult
runApp(const std::string &which, sim::Tick ticks, std::uint64_t seed,
       const analysis::BenchArgs &args, prof::Report *report = nullptr,
       const char *bench = nullptr)
{
    auto ob = analysis::BundleOptions::builder().cores(4).seed(1 + seed);
    if (report) {
        ob.capture(&args);
        if (args.tracing())
            ob.pmuWidth(22);
    }
    analysis::SimBundle b(ob.build());

    // Deterministic fault injection from --faults. The controller
    // must outlive the run; detach before it goes out of scope.
    std::unique_ptr<fault::PlanController> fault_controller;
    if (!args.faults.empty()) {
        fault::Plan plan;
        std::string err;
        // parseBenchArgs already validated the grammar up front.
        fatal_if(!fault::Plan::parse(args.faults, plan, err),
                 "bad --faults spec '", args.faults, "': ", err);
        fault_controller = std::make_unique<fault::PlanController>(
            b.machine(), std::move(plan));
        b.machine().setFaults(fault_controller.get());
    }
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(session, rc);

    // A short-lived helper calibrates read overhead before the app
    // threads begin measuring.
    b.kernel().spawn("calibrate", [&](sim::Guest &g) -> sim::Task<void> {
        co_await prof.calibrate(g);
    });

    SyncRunResult out;
    out.app = which;

    std::unique_ptr<workloads::OltpServer> oltp;
    std::unique_ptr<workloads::WebServer> web;
    std::unique_ptr<workloads::BrowserLoop> browser;

    if (which == "oltp (MySQL-like)") {
        workloads::OltpConfig cfg;
        cfg.clients = 6;
        cfg.readRatio = 0.5;
        oltp = std::make_unique<workloads::OltpServer>(
            b.machine(), b.kernel(), cfg, 1234 + seed);
        oltp->attachProfiler(&prof);
        oltp->attachSyncProfile(&out.sync);
        oltp->spawn();
    } else if (which == "web (Apache-like)") {
        workloads::WebConfig cfg;
        cfg.workers = 6;
        web = std::make_unique<workloads::WebServer>(
            b.machine(), b.kernel(), cfg, 1234 + seed);
        web->attachProfiler(&prof);
        web->attachSyncProfile(&out.sync);
        web->spawn();
    } else {
        workloads::BrowserConfig cfg;
        browser = std::make_unique<workloads::BrowserLoop>(
            b.machine(), b.kernel(), cfg, 1234 + seed);
        browser->attachProfiler(&prof);
        browser->attachSyncProfile(&out.sync);
        browser->spawn();
    }

    out.wallTicks = b.run(ticks);
    out.totalCycles = analysis::totalEvent(b.kernel(),
                                           sim::EventType::Cycles);

    if (oltp)
        out.workItems = oltp->committed();
    else if (web)
        out.workItems = web->served();
    else
        out.workItems = browser->totalEvents();
    if (report)
        analysis::writeArtifacts(args, bench, *report, b);
    if (fault_controller)
        b.machine().setFaults(nullptr);
    return out;
}

inline const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> names = {
        "oltp (MySQL-like)",
        "web (Apache-like)",
        "browser (Firefox-like)",
    };
    return names;
}

} // namespace limit::benchsync

#endif // LIMIT_BENCH_SYNC_COMMON_HH

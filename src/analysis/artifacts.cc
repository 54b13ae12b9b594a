#include "analysis/artifacts.hh"

#include <cstdio>
#include <fstream>
#include <string>
#include <variant>

#include "base/logging.hh"
#include "os/sysno.hh"
#include "prof/kernel_profile.hh"
#include "prof/timeline.hh"

namespace limit::analysis {

namespace {

/** Chrome-trace JSON plus the ASCII per-category summary. */
bool
exportTrace(SimBundle &rep, const std::vector<trace::RunCounter> &counters,
            const std::string &path)
{
    const trace::Tracer *tracer = rep.tracer();
    panic_if(tracer == nullptr,
             "--trace: the representative run has no tracer (build it "
             "with BundleOptions::Builder::capture)");
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "trace: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    opts.timeline = rep.timeline();
    trace::writeChromeTrace(out, *tracer, counters, opts);
    out.close();

    std::fputs(trace::asciiSummary(*tracer).c_str(), stdout);
    if (tracer->totalDropped() > 0) {
        std::fprintf(
            stderr,
            "trace: %llu records overwritten in the per-core rings; "
            "the exported trace is incomplete (raise --trace-cap)\n",
            static_cast<unsigned long long>(tracer->totalDropped()));
    }
    std::printf("wrote %s (%llu events)\n", path.c_str(),
                static_cast<unsigned long long>(
                    tracer->totalRecorded() - tracer->totalDropped()));
    return true;
}

/** limitpp-timeline-v1 JSON plus the ASCII heatmap. */
bool
exportTimeline(SimBundle &rep, const std::string &bench,
               const std::string &path)
{
    const sim::TimelineRecorder *recorder = rep.timeline();
    panic_if(recorder == nullptr,
             "--timeline: the representative run has no recorder "
             "(build it with BundleOptions::Builder::capture)");
    prof::Report report;
    report.schema("limitpp-timeline-v1");
    // No seeds/jobs stamp: the capture comes from the dedicated
    // representative run, so the artifact is byte-identical across
    // --jobs and execution modes.
    report.meta("bench", bench);
    report.meta("interval_ticks",
                static_cast<std::uint64_t>(recorder->interval()));
    report.addTimeline(prof::buildTimeline(bench, *recorder));
    if (!report.writeJson(path)) {
        std::fprintf(stderr, "timeline: cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    std::fputs(report.timelineAscii().c_str(), stdout);
    return true;
}

} // namespace

std::vector<trace::RunCounter>
runCounters(SimBundle &bundle)
{
    const sim::Machine &machine = bundle.machine();
    os::Kernel &kernel = bundle.kernel();
    const sim::WorkStats &w = machine.work();
    // Superblock keys stay present (zeros) when replay is off, so
    // dashboards can diff runs.
    const sim::SuperblockStats &sb = machine.superblockStats();
    // Hit rate over every op a replay covered: retired on the fast
    // check, or run through the full memory model inside the replay.
    const std::uint64_t sb_total = sb.opsReplayed + sb.stallBridges;
    std::vector<trace::RunCounter> out = {
        {"sim.max_time_ticks", machine.maxTime()},
        {"os.threads", std::uint64_t{kernel.numThreads()}},
        {"os.context_switches", kernel.totalContextSwitches()},
        {"ledger.instructions",
         totalEvent(kernel, sim::EventType::Instructions)},
        {"ledger.cycles", totalEvent(kernel, sim::EventType::Cycles)},
        {"sim.rounds", w.rounds},
        {"sim.guest_ops", w.guestOps},
        {"os.polls", w.polls},
        {"mem.access_calls", w.accessCalls},
        {"mem.fast_tries", w.fastTries},
        {"mem.fast_hits", w.fastHits},
        {"superblock.entries", sb.entries},
        {"superblock.full_commits", sb.fullCommits},
        {"superblock.partial_flushes", sb.partialFlushes},
        {"superblock.stall_bridges", sb.stallBridges},
        {"superblock.ops_replayed", sb.opsReplayed},
        {"superblock.refused_faults", sb.refusedFaults},
        {"superblock.refused_pmi", sb.refusedPmi},
        {"superblock.refused_horizon", sb.refusedHorizon},
        {"superblock.refused_budget", sb.refusedBudget},
        {"superblock.refused_overflow", sb.refusedOverflow},
        {"superblock.refused_mem_view", sb.refusedMemView},
        {"superblock.hit_rate",
         sb_total == 0 ? 0.0
                       : static_cast<double>(sb.opsReplayed) /
                             static_cast<double>(sb_total)},
    };
    if (const trace::Tracer *tracer = bundle.tracer()) {
        out.push_back({"trace.records", tracer->totalRecorded()});
        out.push_back({"trace.dropped", tracer->totalDropped()});
        for (unsigned c = 0; c < tracer->numCores(); ++c) {
            const std::uint64_t d = tracer->ring(c).dropped();
            if (d > 0)
                out.push_back({"trace.dropped.core" + std::to_string(c), d});
        }
        for (unsigned c = 0; c < trace::numTraceCategories; ++c) {
            const auto cat = static_cast<trace::TraceCategory>(c);
            const std::string name(trace::traceCategoryName(cat));
            if (const std::uint64_t n = tracer->categoryCount(cat))
                out.push_back({"trace." + name, n});
        }
    }
    return out;
}

bool
writeArtifacts(const BenchArgs &args, const std::string &bench,
               prof::Report &report, SimBundle &rep)
{
    // Finalize before the trace export so its counter tracks see
    // flushed slices.
    if (rep.timeline() != nullptr)
        rep.timeline()->finalize(rep.machine().maxTime());
    const std::vector<trace::RunCounter> counters = runCounters(rep);
    bool ok = true;
    if (args.tracing())
        ok = exportTrace(rep, counters, args.trace) && ok;
    if (args.timelineOn())
        ok = exportTimeline(rep, bench, args.timeline) && ok;
    if (!args.profiling())
        return ok;
    for (const trace::RunCounter &c : counters)
        std::visit([&](auto v) { report.meta(c.key, v); }, c.value);
    report.meta("bench", bench);
    report.meta("seeds", static_cast<std::uint64_t>(args.seeds));
    report.meta("jobs", static_cast<std::uint64_t>(args.jobs));
    if (!report.writeJson(args.profile)) {
        std::fprintf(stderr, "profile: cannot write %s\n",
                     args.profile.c_str());
        return false;
    }
    std::printf("wrote %s\n", args.profile.c_str());
    return ok;
}

bool
writeArtifacts(const BenchArgs &args, const std::string &bench,
               SimBundle &rep)
{
    prof::Report report;
    if (args.profiling()) {
        report.addKernel(
            bench,
            prof::buildKernelProfile(
                rep.kernel(),
                rep.tracer() ? rep.tracer()->merged()
                             : std::vector<trace::TraceRecord>{}),
            0, 0); // no PEC cross-check counters in the generic path
    }
    return writeArtifacts(args, bench, report, rep);
}

} // namespace limit::analysis

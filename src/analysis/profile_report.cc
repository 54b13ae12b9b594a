#include "analysis/profile_report.hh"

#include <cstdio>
#include <variant>

#include "analysis/trace_report.hh"
#include "prof/kernel_profile.hh"
#include "prof/timeline.hh"

namespace limit::analysis {

bool
writeProfile(prof::Report &report, const BenchArgs &args,
             const std::string &bench)
{
    if (!args.profile)
        return true;
    report.meta("bench", bench);
    report.meta("seeds", static_cast<std::uint64_t>(args.seeds));
    report.meta("jobs", static_cast<std::uint64_t>(args.jobs));
    if (!report.writeJson(args.profileOut)) {
        std::fprintf(stderr, "profile: cannot write %s\n",
                     args.profileOut.c_str());
        return false;
    }
    std::printf("wrote %s\n", args.profileOut.c_str());
    return true;
}

bool
writeTimeline(SimBundle &bundle, const BenchArgs &args,
              const std::string &bench)
{
    if (!args.timelineOn())
        return true;
    sim::TimelineRecorder *recorder = bundle.timeline();
    if (recorder == nullptr) {
        // The bench forgot to pass captureTimelineInterval() into its
        // representative BundleOptions — surface it instead of writing
        // an empty artifact.
        std::fprintf(stderr,
                     "timeline: %s built no recorder (bench bug: "
                     "BundleOptions.timelineInterval not wired)\n",
                     bench.c_str());
        return false;
    }
    recorder->finalize(bundle.machine().maxTime());
    prof::Report report;
    report.schema("limitpp-timeline-v1");
    // Deliberately no seeds/jobs metadata: the capture comes from the
    // dedicated representative run, so the artifact must stay
    // byte-identical across --jobs and execution modes.
    report.meta("bench", bench);
    report.meta("interval_ticks",
                static_cast<std::uint64_t>(recorder->interval()));
    report.addTimeline(prof::buildTimeline(bench, *recorder));
    if (!report.writeJson(args.timeline)) {
        std::fprintf(stderr, "timeline: cannot write %s\n",
                     args.timeline.c_str());
        return false;
    }
    std::printf("wrote %s\n", args.timeline.c_str());
    std::fputs(report.timelineAscii().c_str(), stdout);
    return true;
}

bool
writeRunArtifacts(SimBundle &bundle, const BenchArgs &args,
                  prof::Report &report, const std::string &bench)
{
    bool ok = true;
    // Finalize before the trace export so its counter tracks see
    // flushed slices (finalize is idempotent; writeTimeline's own
    // call is then a no-op).
    if (bundle.timeline() != nullptr)
        bundle.timeline()->finalize(bundle.machine().maxTime());
    if (args.tracing())
        ok = writeTraceReport(bundle, args.trace) && ok;
    ok = writeTimeline(bundle, args, bench) && ok;
    if (args.profile) {
        for (const RunCounter &c : runCounters(bundle))
            std::visit([&](auto v) { report.meta(c.key, v); }, c.value);
    }
    return writeProfile(report, args, bench) && ok;
}

bool
writeStandardArtifacts(SimBundle &bundle, const BenchArgs &args,
                       const std::string &bench)
{
    prof::Report report;
    if (args.profile) {
        report.addKernel(
            bench,
            prof::buildKernelProfile(
                bundle.kernel(),
                bundle.tracer()
                    ? bundle.tracer()->merged()
                    : std::vector<trace::TraceRecord>{}),
            0, 0); // no PEC cross-check counters in the generic path
    }
    return writeRunArtifacts(bundle, args, report, bench);
}

} // namespace limit::analysis

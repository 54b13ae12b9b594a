#include "analysis/trace_report.hh"

#include <cstdio>
#include <fstream>
#include <string>

#include "os/sysno.hh"
#include "trace/exporter.hh"

namespace limit::analysis {

std::vector<RunCounter>
runCounters(SimBundle &bundle)
{
    const sim::Machine &machine = bundle.machine();
    const sim::WorkStats &w = machine.work();
    // Superblock keys stay present (zeros) when replay is off, so
    // dashboards can diff runs.
    const sim::SuperblockStats &sb = machine.superblockStats();
    // Hit rate over every op a replay covered: retired on the fast
    // check, or run through the full memory model inside the replay.
    const std::uint64_t sb_total = sb.opsReplayed + sb.stallBridges;
    std::vector<RunCounter> out = {
        {"sim.max_time_ticks", machine.maxTime()},
        {"os.context_switches", bundle.kernel().totalContextSwitches()},
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
    }
    return out;
}

void
harvestStandardMetrics(SimBundle &bundle)
{
    trace::MetricsRegistry &m = bundle.metrics();
    for (const RunCounter &c : runCounters(bundle)) {
        if (const auto *n = std::get_if<std::uint64_t>(&c.value))
            m.add(c.key, *n);
        else
            m.set(c.key, std::get<double>(c.value));
    }
    m.set("os.threads", bundle.kernel().numThreads());
    m.add("ledger.instructions",
          totalEvent(bundle.kernel(), sim::EventType::Instructions));
    m.add("ledger.cycles",
          totalEvent(bundle.kernel(), sim::EventType::Cycles));

    const trace::Tracer *tracer = bundle.tracer();
    if (!tracer)
        return;
    for (unsigned c = 0; c < trace::numTraceCategories; ++c) {
        const auto cat = static_cast<trace::TraceCategory>(c);
        const std::uint64_t n = tracer->categoryCount(cat);
        if (n > 0) {
            m.add(std::string("trace.") +
                      std::string(trace::traceCategoryName(cat)),
                  n);
        }
    }
}

bool
writeTraceReport(SimBundle &bundle, const std::string &path)
{
    harvestStandardMetrics(bundle);
    const trace::Tracer *tracer = bundle.tracer();
    if (!tracer) {
        std::fprintf(stderr,
                     "trace: bundle has no tracer (was traceCapacity "
                     "set?); not writing %s\n",
                     path.c_str());
        return false;
    }

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "trace: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    opts.counterTracks = true;
    // Timeline counter tracks ride along when --timeline is also
    // active (the recorder is finalized by writeRunArtifacts before
    // this export runs).
    if (bundle.timeline() != nullptr && bundle.timeline()->finalized())
        opts.timeline = bundle.timeline();
    trace::writeChromeTrace(out, *tracer, &bundle.metrics(), opts);
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

} // namespace limit::analysis

#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "analysis/campaign.hh"
#include "guard/fingerprint.hh"

namespace limitbench {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** User + system CPU of the whole process. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * A fixed integer loop, timed at the start and end of every run: three
 * dependent chains with loads from a 256 KiB table and a data-dependent
 * branch, the core resources (ports, L1/L2, branch predictor) the
 * simulator's inner loops share with whatever else runs on the
 * physical core. When it slows down too, the host is slow, not the
 * program.
 */
double
refLoopSeconds()
{
    std::vector<std::uint32_t> table(1u << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t &t : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t = static_cast<std::uint32_t>(x);
    }
    const Clock::time_point start = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3;
    for (unsigned i = 0; i < 40'000'000; ++i) {
        a = a * 6364136223846793005ull + 1442695040888963407ull;
        b += table[a >> 48];
        if (b & 1)
            c ^= b;
        else
            c += a;
    }
    asm volatile("" : : "r"(c)); // keep the loop
    return seconds(start, Clock::now());
}

/** Lower median (an element of the sample, never an average). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/** Nearest-rank percentile, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/** One pass over the job list. */
struct Pass
{
    bool traced = false;
    std::vector<JobResult> results;
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;
    double reportS = 0;
    /** Report building, on the run's span clock. */
    Span reportSpan;
    std::uint64_t reportHash = 0;
    LayerStats layers;
};

Pass
runPass(Workload w, const std::vector<Job> &jobs, bool traced,
        Clock::time_point epoch)
{
    Pass p;
    p.traced = traced;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    // The same guarded fan-out every bench_eXX uses, at --jobs 1: one
    // host thread, jobs back to back.
    p.results = limit::analysis::mapGuarded(
        limit::analysis::CampaignOptions{}, jobs.size(),
        [&](std::size_t i) { return runJob(jobs[i], traced, epoch); });
    const Clock::time_point jobsDone = Clock::now();
    const std::string report = buildReport(w, jobs, p.results);
    const Clock::time_point end = Clock::now();

    p.wallS = seconds(start, end);
    p.cpuS = processCpuSeconds() - cpu0;
    p.reportS = seconds(jobsDone, end);
    p.reportSpan = {"report", seconds(epoch, jobsDone), seconds(epoch, end)};
    limit::guard::Fingerprint fp;
    for (const char c : report)
        fp.mix(static_cast<unsigned char>(c));
    p.reportHash = fp.hash;
    for (JobResult &r : p.results) {
        p.setupS += r.setupS;
        p.layers.add(r.layers);
        r.report = {}; // the lock profiles are large and now unused
    }
    return p;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** FNV-1a over the job digests, in job order. */
std::uint64_t
runDigest(const std::vector<std::uint64_t> &digests)
{
    limit::guard::Fingerprint fp;
    for (const std::uint64_t d : digests)
        fp.mix(d);
    return fp.hash;
}

std::vector<std::uint64_t>
digestsOf(const Pass &p)
{
    std::vector<std::uint64_t> out;
    for (const JobResult &r : p.results)
        out.push_back(r.error.empty() ? r.outcome.digest() : 0);
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Job> &jobs,
           const std::vector<Pass> &passes)
{
    std::ofstream os(path);
    fatal_if(!os, "cannot write spans to ", path);
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const Span &s, unsigned pass, long job,
                          const std::string &cell) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << std::llround(s.startS * 1e6)
           << ",\"dur\":" << std::llround((s.endS - s.startS) * 1e6)
           << ",\"args\":{\"pass\":" << pass << ",\"job\":" << job
           << ",\"cell\":\"" << cell << "\"}}";
        first = false;
    };
    for (unsigned p = 0; p < passes.size(); ++p) {
        if (!passes[p].traced)
            continue;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            for (const Span &s : passes[p].results[j].spans)
                emit(s, p, static_cast<long>(j), cellName(jobs[j]));
        }
        emit(passes[p].reportSpan, p, -1, "");
    }
    os << "\n]}\n";
}

/*
 * Per-pass figures are averaged over the run's passes: on a shared
 * host, pass times move between plateaus lasting several passes, and
 * a mean weighs the plateaus a run saw by their length where a median
 * jumps to one of them. Job percentiles are taken within each pass
 * (100+ jobs) for the same reason. setup_s is the median of its
 * per-pass sums.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes, double peakRss)
{
    std::vector<double> wall, cpu, setup, p50, p90;
    double instr = 0;
    for (const Pass &p : passes) {
        if (p.traced)
            continue;
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        setup.push_back(p.setupS);
        instr += static_cast<double>(p.layers.guestInstr);
        std::vector<double> jobs;
        for (const JobResult &r : p.results)
            jobs.push_back(r.hostS);
        p50.push_back(percentile(jobs, 0.5));
        p90.push_back(percentile(jobs, 0.9));
    }
    return {
        {"wall_s", mean(wall), "s"},
        {"cpu_s", mean(cpu), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRss, "MB"},
        {"guest_mips", instr / (mean(wall) * wall.size()) / 1e6,
         "Minstr/s"},
        {"job_p50_s", mean(p50), "s"},
        {"job_p90_s", mean(p90), "s"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Pass> &passes, std::size_t numJobs,
                double refLoopS)
{
    std::vector<const Pass *> traced;
    std::vector<double> tracedWall, plainWall;
    for (const Pass &p : passes) {
        (p.traced ? tracedWall : plainWall).push_back(p.wallS);
        if (p.traced)
            traced.push_back(&p);
    }
    // Every layer figure comes from one traced pass, the one with the
    // median wall time, so the split adds up within that pass.
    std::sort(traced.begin(), traced.end(),
              [](const Pass *a, const Pass *b) { return a->wallS < b->wallS; });
    const Pass &p = *traced[(traced.size() - 1) / 2];
    const LayerStats &l = p.layers;
    const double perTick = ratio(l.runS, static_cast<double>(l.runTicks));
    const double accessS = static_cast<double>(l.mem.ticks) * perTick;
    const double kernelS = static_cast<double>(l.os.totalTicks()) * perTick;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    // Work, sync and PEC counts are the jobs' simulated outcomes.
    const auto total = [&p](std::uint64_t Outcome::*field) {
        double sum = 0;
        for (const JobResult &r : p.results)
            sum += static_cast<double>(r.outcome.*field);
        return sum;
    };
    const double sbSeen = n(l.sbReplayed + l.sbRecorded + l.sbBridges);

    return {
        {"analysis.bundle_build_s", l.bundleBuildS, "s"},
        {"analysis.jobs", n(numJobs), "count"},
        {"workloads.spawn_s", l.spawnS, "s"},
        {"workloads.work_items", total(&Outcome::workItems), "count"},
        {"sim.run_s", l.runS, "s"},
        {"sim.self_s", l.runS - accessS - kernelS, "s"},
        {"sim.host_ns_per_op", ratio(l.runS * 1e9, n(l.guestOps)), "ns/op"},
        {"sim.guest_ops", n(l.guestOps), "count"},
        {"sim.rounds", n(l.rounds), "count"},
        {"sim.ops_per_round", ratio(n(l.guestOps), n(l.rounds)), "ops/round"},
        {"sim.guest_instr", n(l.guestInstr), "count"},
        {"sim.guest_cycles", n(l.guestCycles), "cycles"},
        {"sim.sb_ops_replayed", n(l.sbReplayed), "count"},
        {"sim.sb_ops_recorded", n(l.sbRecorded), "count"},
        {"sim.sb_stall_bridges", n(l.sbBridges), "count"},
        {"sim.sb_hit_rate", ratio(n(l.sbReplayed), sbSeen), "ratio"},
        {"sim.sb_refusals", n(l.sbRefusals), "count"},
        {"mem.access_calls", n(l.mem.accessCalls), "count"},
        {"mem.access_s", accessS, "s"},
        {"mem.fast_tries", n(l.mem.fastTries), "count"},
        {"mem.fast_hits", n(l.mem.fastHits), "count"},
        {"mem.fast_hit_rate", ratio(n(l.mem.fastHits), n(l.mem.fastTries)),
         "ratio"},
        {"mem.replay_credited", n(l.mem.replayCredited), "count"},
        {"mem.l1d_misses", n(l.l1dMisses), "count"},
        {"mem.l2_misses", n(l.l2Misses), "count"},
        {"mem.llc_misses", n(l.llcMisses), "count"},
        {"mem.dtlb_misses", n(l.dtlbMisses), "count"},
        {"os.syscalls", n(l.os.syscalls), "count"},
        {"os.syscall_s", n(l.os.syscallTicks) * perTick, "s"},
        {"os.polls", n(l.os.polls), "count"},
        {"os.poll_s", n(l.os.pollTicks) * perTick, "s"},
        {"os.timer_ticks", n(l.os.timerTicks), "count"},
        {"os.pmis", n(l.os.pmis), "count"},
        {"os.kernel_s", kernelS, "s"},
        {"os.context_switches", n(l.contextSwitches), "count"},
        {"pec.reads", n(l.pecReads), "count"},
        {"pec.region_entries", total(&Outcome::pecRegionEntries), "count"},
        {"pec.read_restarts", total(&Outcome::pecReadRestarts), "count"},
        {"pec.overflow_fixups", total(&Outcome::pecOverflowFixups), "count"},
        {"baseline.reads", n(l.baselineReads), "count"},
        {"sync.acquisitions", total(&Outcome::syncAcquisitions), "count"},
        {"sync.contended", total(&Outcome::syncContended), "count"},
        {"sync.wait_cycles", total(&Outcome::syncWaitCycles), "cycles"},
        {"prof.report_s", p.reportS, "s"},
        {"host.ref_loop_s", refLoopS, "s"},
        {"bench.trace_overhead_pct",
         100.0 * (mean(tracedWall) / mean(plainWall) - 1.0), "%"},
    };
}

void
printMetrics(std::FILE *out, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::fprintf(out, "  %-26s %.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    }
}

} // namespace

bool
parseReferences(const std::string &text, References &out,
                std::string &error)
{
    std::istringstream lines(text);
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(lines, line)) {
        ++lineNo;
        std::istringstream fields(line);
        std::string workload;
        if (!(fields >> workload) || workload[0] == '#')
            continue;
        std::uint64_t seed = 0;
        std::vector<std::uint64_t> digests;
        std::string d;
        if (!(fields >> seed) || !parseWorkload(workload)) {
            error = "line " + std::to_string(lineNo) +
                    ": expected '<workload> <seed> <digests...>'";
            return false;
        }
        while (fields >> d) {
            char *end = nullptr;
            digests.push_back(std::strtoull(d.c_str(), &end, 16));
            if (d.size() != 16 || *end != '\0') {
                error = "line " + std::to_string(lineNo) +
                        ": bad digest '" + d + "'";
                return false;
            }
        }
        out[{workload, seed}] = std::move(digests);
    }
    return true;
}

std::size_t
countFailures(const std::vector<JobResult> &results,
              const std::vector<std::uint64_t> &expected)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        if (!r.error.empty() || i >= expected.size() ||
            r.outcome.digest() != expected[i])
            ++failed;
    }
    return failed;
}

std::string
resultJson(const RunSummary &s)
{
    std::string json = std::string("{\"correct\": ") +
                       (s.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(s.attempted) +
                       ", \"failed\": " + std::to_string(s.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < s.metrics.size(); ++i) {
        const Metric &m = s.metrics[i];
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    return json + "}}";
}

RunSummary
runBenchmark(const RunOptions &o, const References &references,
             std::FILE *out)
{
    const std::vector<Job> jobs = jobList(o.workload, o.seed);
    const char *name = workloadName(o.workload);
    const auto ref = references.find({name, o.seed});
    std::fprintf(out, "limitbench: %s, seed %" PRIu64 ", %zu jobs per pass, "
                      "%s run, %.0f s budget\n",
                 name, o.seed, jobs.size(),
                 o.trace ? "traced" : "end-to-end", o.seconds);

    const Clock::time_point epoch = Clock::now();
    const double refStart = refLoopSeconds();

    // End-to-end runs repeat untraced passes, at least three. Traced
    // runs alternate untraced and traced passes, at least two of each,
    // so host drift hits both sides of the overhead ratio alike.
    const unsigned minPasses = o.trace ? 4 : 3;
    std::vector<Pass> passes;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const bool traced = o.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(o.workload, jobs, traced, epoch));
        if (o.trace && !traced)
            continue; // a traced run stops on whole pairs
        // Stop when one more pass (or pair) would overrun the budget.
        double next = passes.back().wallS;
        if (o.trace)
            next += passes[passes.size() - 2].wallS;
        if (passes.size() >= minPasses &&
            seconds(start, Clock::now()) + next > o.seconds)
            break;
    }
    const double peakRss = peakRssMb();
    const double refEnd = refLoopSeconds();

    // A job fails when it throws or its digest differs from the
    // reference; for a seed without a reference, from the first pass.
    const std::vector<std::uint64_t> expected =
        ref != references.end() ? ref->second : digestsOf(passes.front());
    RunSummary s;
    bool reportsAgree = true;
    for (const Pass &p : passes) {
        s.attempted += p.results.size();
        s.failed += countFailures(p.results, expected);
        reportsAgree &= p.reportHash == passes.front().reportHash;
        for (std::size_t i = 0; i < p.results.size(); ++i) {
            if (!p.results[i].error.empty()) {
                std::fprintf(out, "job %zu (%s) threw: %s\n", i,
                             cellName(jobs[i]).c_str(),
                             p.results[i].error.c_str());
            }
        }
    }
    s.correct = s.failed == 0 && reportsAgree;

    const std::vector<std::uint64_t> got = digestsOf(passes.front());
    std::fprintf(out, "passes: %zu (%s), wall s:", passes.size(),
                 o.trace ? "untraced and traced alternating" : "untraced");
    for (const Pass &p : passes)
        std::fprintf(out, " %.3f%s", p.wallS, p.traced ? "t" : "");
    std::fprintf(out, "\n");
    std::fprintf(out, "digest %s %" PRIu64 " %s (%s)\n", name, o.seed,
                 hex(runDigest(got)).c_str(),
                 ref != references.end()
                     ? "checked against the reference digests"
                     : "no reference for this seed; passes checked "
                       "against each other");
    if (o.trace) {
        bool equal = true;
        for (const Pass &p : passes)
            equal &= digestsOf(p) == got;
        std::fprintf(out, "traced digests equal untraced: %s\n",
                     equal ? "yes" : "no");
    }
    std::fprintf(out, "report identical in every pass: %s\n",
                 reportsAgree ? "yes" : "no");
    std::fprintf(out, "failed_jobs %" PRIu64 " of %" PRIu64 " attempted\n",
                 s.failed, s.attempted);
    std::fprintf(out, "host.ref_loop_s start %.4f end %.4f\n", refStart,
                 refEnd);

    const std::vector<Metric> e2e = endToEndMetrics(passes, peakRss);
    std::fprintf(out, "end-to-end (untraced passes):\n");
    printMetrics(out, e2e);
    if (o.trace) {
        s.metrics = perLayerMetrics(passes, jobs.size(),
                                    0.5 * (refStart + refEnd));
        std::fprintf(out, "per-layer (median traced pass):\n");
        printMetrics(out, s.metrics);
        if (!o.spansPath.empty())
            writeSpans(o.spansPath, jobs, passes);
    } else {
        s.metrics = e2e;
    }
    return s;
}

std::string
digestLine(Workload w, std::uint64_t seed)
{
    const std::vector<Job> jobs = jobList(w, seed);
    const Pass p = runPass(w, jobs, false, Clock::now());
    std::string line = std::string(workloadName(w)) + " " +
                       std::to_string(seed);
    for (const JobResult &r : p.results) {
        fatal_if(!r.error.empty(), "job threw: ", r.error);
        line += " " + hex(r.outcome.digest());
    }
    return line;
}

} // namespace limitbench

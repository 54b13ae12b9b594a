#include "jobs.hh"

#include <exception>
#include <iterator>
#include <memory>
#include <span>

#include "analysis/bundle.hh"
#include "baseline/source_set.hh"
#include "guard/fingerprint.hh"
#include "pec/region.hh"
#include "pec/session.hh"
#include "prof/report.hh"
#include "stats/table.hh"
#include "workloads/browser.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"
#include "workloads/webserver.hh"

namespace limitbench {

namespace {

namespace analysis = limit::analysis;
namespace baseline = limit::baseline;
namespace pec = limit::pec;
namespace workloads = limit::workloads;
using Clock = std::chrono::steady_clock;
using sim::EventType;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** E5: the paper's MySQL/Apache/Firefox analogues. */
const char *const appNames[] = {
    "oltp (MySQL-like)", "web (Apache-like)", "browser (Firefox-like)"};

/** E11: the SPEC-like kernels. */
const workloads::KernelKind kernelKinds[] = {
    workloads::KernelKind::Stream, workloads::KernelKind::PtrChase,
    workloads::KernelKind::MatMul, workloads::KernelKind::SortLike};

/** E3: counter reads per OLTP operation, sparse to dense. */
struct Density
{
    const char *label;
    unsigned every;
    unsigned reads;
};
const Density densities[] = {
    {"1/16", 16, 1}, {"1/4", 4, 1}, {"1", 1, 1}, {"4", 1, 4}, {"16", 1, 16},
};
/** E3's three access methods, by roster label. */
const char *const methods[] = {"pec/kernel-fixup", "papi-like",
                               "perf-syscall"};
constexpr unsigned numMethods = std::size(methods);

/** One experiment's share of a workload's pass. */
struct Part
{
    Experiment experiment;
    unsigned cells;
    /** Simulated run length of the published experiment. */
    sim::Tick ticks;
};

constexpr Part caseStudyParts[] = {
    {Experiment::E5, std::size(appNames), 40'000'000},
    // Cell 0 is the uninstrumented run, then density-major cells.
    {Experiment::E3, 1 + std::size(densities) * numMethods, 30'000'000},
};
constexpr Part specKernelParts[] = {
    {Experiment::E11, std::size(kernelKinds), 25'000'000},
};

/** Each pass's p90 job time then has 10 jobs beyond it. */
constexpr unsigned minJobsPerPass = 100;

std::span<const Part>
partsOf(Workload w)
{
    if (w == Workload::CaseStudies)
        return caseStudyParts;
    return specKernelParts;
}

/*
 * Every cell of a workload runs at the same R replicate seeds, as
 * --seeds R runs every cell of a bench_eXX table R times. The
 * experiments then weigh in a pass as they do when the tables are
 * regenerated at any --seeds: in case-studies, E3's 16 cells of 30M
 * ticks against E5's 3 cells of 40M. R is the smallest count that
 * gives a pass at least minJobsPerPass jobs: 6 for case-studies' 19
 * cells, 25 for spec-kernels' 4.
 */
unsigned
replicatesOf(Workload w)
{
    unsigned cells = 0;
    for (const Part &part : partsOf(w))
        cells += part.cells;
    return (minJobsPerPass + cells - 1) / cells;
}

const baseline::SourceSpec &
methodSpec(unsigned m)
{
    static const std::vector<baseline::SourceSpec> roster =
        baseline::standardSources();
    for (const auto &s : roster) {
        if (s.label == methods[m])
            return s;
    }
    fatal("no counter source labelled '", methods[m],
          "' in the standard roster");
}

/**
 * One job's simulated machine plus, when traced, the wrappers in
 * front of its memory and kernel layers. Times the set-up and run
 * phases and harvests the accessor counts every job reports.
 */
class Harness
{
  public:
    Harness(const analysis::BundleOptions &options, bool traced,
            Clock::time_point epoch, JobResult &out)
        : out_(out), traced_(traced), epoch_(epoch),
          buildStart_(Clock::now()), bundle_(options)
    {
        const Clock::time_point built = Clock::now();
        out_.layers.bundleBuildS = seconds(buildStart_, built);
        if (traced_) {
            out_.spans.push_back(span("bundle", buildStart_, built));
            memory_.emplace(*bundle_.hierarchy(), clock_, out_.layers.mem);
            bundle_.machine().setMemory(&*memory_);
            kernel_.emplace(bundle_.kernel(), clock_, out_.layers.os);
            bundle_.machine().setKernel(&*kernel_);
        }
        spawnStart_ = Clock::now();
    }

    analysis::SimBundle &bundle() { return bundle_; }
    bool traced() const { return traced_; }

    /** Close the set-up phase, run the machine, harvest its counts. */
    void
    run(sim::Tick ticks)
    {
        const Clock::time_point start = Clock::now();
        out_.layers.spawnS = seconds(spawnStart_, start);
        out_.setupS = out_.layers.bundleBuildS + out_.layers.spawnS;

        const std::uint64_t tsc = LayerClock::now();
        const sim::Tick end = bundle_.run(ticks);
        out_.layers.runTicks = LayerClock::now() - tsc;
        const Clock::time_point stop = Clock::now();
        out_.layers.runS = seconds(start, stop);
        if (traced_) {
            out_.spans.push_back(span("spawn", spawnStart_, start));
            out_.spans.push_back(span("run", start, stop));
        }
        harvest(end);
    }

  private:
    Span
    span(const char *name, Clock::time_point a, Clock::time_point b) const
    {
        return {name, seconds(epoch_, a), seconds(epoch_, b)};
    }

    void
    harvest(sim::Tick end)
    {
        sim::Machine &m = bundle_.machine();
        limit::os::Kernel &k = bundle_.kernel();
        LayerStats &l = out_.layers;

        limit::guard::Fingerprint fp;
        limit::guard::foldRun(fp, k, m, end);
        out_.outcome.ledgerHash = fp.hash;

        l.guestOps = m.batchOps();
        l.rounds = m.batchRounds();
        l.guestInstr = analysis::totalEvent(k, EventType::Instructions);
        l.guestCycles = analysis::totalEvent(k, EventType::Cycles);
        const sim::SuperblockStats sb = m.superblockStats();
        l.sbReplayed = sb.opsReplayed;
        l.sbRecorded = sb.opsRecorded;
        l.sbBridges = sb.stallBridges;
        l.sbRefusals = sb.refusedFaults + sb.refusedPmi +
                       sb.refusedHorizon + sb.refusedBudget +
                       sb.refusedOverflow + sb.refusedMemView;

        limit::mem::CacheHierarchy &h = *bundle_.hierarchy();
        limit::guard::Fingerprint memFp;
        for (sim::CoreId c = 0; c < m.numCores(); ++c) {
            for (const auto *cache : {&h.l1d(c), &h.l2(c)}) {
                memFp.mix(cache->hits());
                memFp.mix(cache->misses());
            }
            memFp.mix(h.dtlb(c).hits());
            memFp.mix(h.dtlb(c).misses());
            l.l1dMisses += h.l1d(c).misses();
            l.l2Misses += h.l2(c).misses();
            l.dtlbMisses += h.dtlb(c).misses();
        }
        memFp.mix(h.llc().hits());
        memFp.mix(h.llc().misses());
        out_.outcome.memHash = memFp.hash;
        l.llcMisses = h.llc().misses();
        l.contextSwitches = k.totalContextSwitches();
    }

    JobResult &out_;
    bool traced_;
    Clock::time_point epoch_;
    Clock::time_point buildStart_;
    Clock::time_point spawnStart_;
    LayerClock clock_;
    // Declared before the bundle so the machine never outlives the
    // wrappers it points at.
    std::optional<TracedMemory> memory_;
    std::optional<TracedKernel> kernel_;
    analysis::SimBundle bundle_;
};

/** E5's runApp: one app with PEC region and lock profiling. */
void
runCaseStudy(const Job &job, bool traced, Clock::time_point epoch,
             JobResult &out)
{
    Harness h(analysis::BundleOptions::builder()
                  .cores(4)
                  .seed(1 + job.seed)
                  .build(),
              traced, epoch, out);
    analysis::SimBundle &b = h.bundle();
    pec::PecSession session(b.kernel());
    session.addEvent(0, EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(session, rc);
    b.kernel().spawn("calibrate", [&](sim::Guest &g) -> sim::Task<void> {
        co_await prof.calibrate(g);
    });

    limit::prof::SyncProfile &sync = out.report.sync;
    std::unique_ptr<workloads::OltpServer> oltp;
    std::unique_ptr<workloads::WebServer> web;
    std::unique_ptr<workloads::BrowserLoop> browser;
    const std::uint64_t seed = 1234 + job.seed;
    if (job.cell == 0) {
        workloads::OltpConfig cfg;
        cfg.clients = 6;
        cfg.readRatio = 0.5;
        oltp = std::make_unique<workloads::OltpServer>(
            b.machine(), b.kernel(), cfg, seed);
        oltp->attachProfiler(&prof);
        oltp->attachSyncProfile(&sync);
        oltp->spawn();
    } else if (job.cell == 1) {
        workloads::WebConfig cfg;
        cfg.workers = 6;
        web = std::make_unique<workloads::WebServer>(b.machine(),
                                                     b.kernel(), cfg, seed);
        web->attachProfiler(&prof);
        web->attachSyncProfile(&sync);
        web->spawn();
    } else {
        workloads::BrowserConfig cfg;
        browser = std::make_unique<workloads::BrowserLoop>(
            b.machine(), b.kernel(), cfg, seed);
        browser->attachProfiler(&prof);
        browser->attachSyncProfile(&sync);
        browser->spawn();
    }

    h.run(job.ticks);

    out.report.totalCycles = analysis::totalEvent(b.kernel(),
                                                  EventType::Cycles);
    Outcome &o = out.outcome;
    o.workItems = oltp ? oltp->committed()
                  : web ? web->served()
                        : browser->totalEvents();
    o.syncAcquisitions = sync.totalAcquisitions();
    o.syncContended = sync.totalContended();
    o.syncWaitCycles = sync.totalWaitCycles();
    o.syncHoldCycles = sync.totalHoldCycles();
    for (const sim::RegionId r : prof.regions())
        o.pecRegionEntries += prof.stats(r).entries;
    o.pecReadRestarts = session.readRestarts();
    o.pecOverflowFixups = session.overflowFixups();
    o.pecDoubleCheckRetries = session.doubleCheckRetries();

    // RegionProfiler reads its counters through the session, which no
    // wrapper can reach, so this count is derived, not counted: every
    // configured counter is read at each region enter and exit, and
    // twice in each of a finished calibration's 32 rounds.
    const std::uint64_t open = prof.openRegions().size();
    const std::uint64_t calibration = prof.calibrated() ? 2 * 32 : 0;
    out.layers.pecReads =
        rc.counters.size() * (2 * o.pecRegionEntries + open + calibration);
}

/** E11's characterize() for one SPEC-like kernel. */
void
runSpecKernel(const Job &job, bool traced, Clock::time_point epoch,
              JobResult &out)
{
    Harness h(analysis::BundleOptions::builder()
                  .cores(4)
                  .quantum(1'000'000)
                  .seed(1 + job.seed)
                  .build(),
              traced, epoch, out);
    analysis::SimBundle &b = h.bundle();
    workloads::ComputeKernel kern(b.kernel(), kernelKinds[job.cell],
                                  16 << 20, 777 + job.seed);
    kern.spawn();

    h.run(job.ticks);

    out.outcome.workItems = kern.iterations();
    limit::os::Kernel &k = b.kernel();
    using sim::PrivMode;
    const auto total = [&k](EventType e) {
        return static_cast<double>(analysis::totalEvent(k, e));
    };
    const double u_instr = static_cast<double>(
        analysis::totalEvent(k, EventType::Instructions, PrivMode::User));
    const double u_cycles = static_cast<double>(
        analysis::totalEvent(k, EventType::Cycles, PrivMode::User));
    const double k_instr = static_cast<double>(analysis::totalEvent(
        k, EventType::Instructions, PrivMode::Kernel));
    const double instr = u_instr + k_instr;
    const double accesses = total(EventType::Loads) +
                            total(EventType::Stores);
    ReportInputs &r = out.report;
    r.ipc = u_instr / u_cycles;
    r.l1MissPct = accesses > 0 ? 100.0 * total(EventType::L1DMiss) /
                                     accesses
                               : 0;
    r.llcMpki = 1000.0 * total(EventType::LLCMiss) / instr;
    r.branchMpki = 1000.0 * total(EventType::BranchMisses) / instr;
    r.dtlbMpki = 1000.0 * total(EventType::DTlbMiss) / instr;
    r.kernelPct = 100.0 * k_instr / instr;
    r.switchesPerMcycle =
        1e6 * static_cast<double>(k.totalContextSwitches()) /
        total(EventType::Cycles);
}

/** E3's runOnce: OLTP reading a counter every few operations. */
void
runReadDensity(const Job &job, bool traced, Clock::time_point epoch,
               JobResult &out)
{
    Harness h(analysis::BundleOptions::builder()
                  .cores(4)
                  .seed(1 + job.seed)
                  .build(),
              traced, epoch, out);
    analysis::SimBundle &b = h.bundle();

    baseline::SourceInstance inst;
    std::optional<CountingSource> counted;
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    if (job.cell != 0) {
        const Density &d = densities[(job.cell - 1) / numMethods];
        const unsigned m = (job.cell - 1) % numMethods;
        inst = methodSpec(m).make(b.kernel(), 0, EventType::Cycles, true,
                                  true);
        limit::CounterSource *source = inst.source.get();
        if (h.traced()) {
            std::uint64_t &reads = inst.session ? out.layers.pecReads
                                                : out.layers.baselineReads;
            source = &counted.emplace(*source, reads);
        }
        cfg.hookEvery = d.every;
        cfg.opHook = [source, n = d.reads](sim::Guest &g)
            -> sim::Task<void> {
            for (unsigned i = 0; i < n; ++i) {
                const std::uint64_t v = co_await source->read(g, 0);
                (void)v;
            }
        };
    }
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 99 + job.seed);
    oltp.spawn();

    h.run(job.ticks);

    out.outcome.workItems = oltp.operations();
    if (inst.session) {
        out.outcome.pecReadRestarts = inst.session->readRestarts();
        out.outcome.pecOverflowFixups = inst.session->overflowFixups();
        out.outcome.pecDoubleCheckRetries =
            inst.session->doubleCheckRetries();
    }
}

} // namespace

const char *
workloadName(Workload w)
{
    return w == Workload::CaseStudies ? "case-studies" : "spec-kernels";
}

std::optional<Workload>
parseWorkload(std::string_view name)
{
    for (const Workload w : allWorkloads) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

std::vector<Job>
jobList(Workload w, std::uint64_t seed)
{
    const unsigned reps = replicatesOf(w);
    std::vector<Job> jobs;
    for (const Part &part : partsOf(w)) {
        for (unsigned c = 0; c < part.cells; ++c) {
            for (unsigned r = 0; r < reps; ++r) {
                jobs.push_back({part.experiment, c, seed * reps + r,
                                part.ticks});
            }
        }
    }
    return jobs;
}

std::string
cellName(const Job &job)
{
    switch (job.experiment) {
      case Experiment::E5: return appNames[job.cell];
      case Experiment::E11:
        return std::string("spec-like: ") +
               workloads::kernelName(kernelKinds[job.cell]);
      case Experiment::E3:
        if (job.cell == 0)
            return "uninstrumented";
        return std::string(densities[(job.cell - 1) / numMethods].label) +
               " " + methods[(job.cell - 1) % numMethods];
    }
    return "?";
}

std::uint64_t
Outcome::digest() const
{
    limit::guard::Fingerprint fp;
    for (const std::uint64_t v :
         {ledgerHash, memHash, workItems, syncAcquisitions, syncContended,
          syncWaitCycles, syncHoldCycles, pecRegionEntries, pecReadRestarts,
          pecOverflowFixups, pecDoubleCheckRetries})
        fp.mix(v);
    return fp.hash;
}

void
LayerStats::add(const LayerStats &o)
{
    bundleBuildS += o.bundleBuildS;
    spawnS += o.spawnS;
    runS += o.runS;
    runTicks += o.runTicks;
    guestOps += o.guestOps;
    rounds += o.rounds;
    guestInstr += o.guestInstr;
    guestCycles += o.guestCycles;
    sbReplayed += o.sbReplayed;
    sbRecorded += o.sbRecorded;
    sbBridges += o.sbBridges;
    sbRefusals += o.sbRefusals;
    mem.accessCalls += o.mem.accessCalls;
    mem.fastTries += o.mem.fastTries;
    mem.fastHits += o.mem.fastHits;
    mem.replayCredited += o.mem.replayCredited;
    mem.ticks += o.mem.ticks;
    l1dMisses += o.l1dMisses;
    l2Misses += o.l2Misses;
    llcMisses += o.llcMisses;
    dtlbMisses += o.dtlbMisses;
    os.syscalls += o.os.syscalls;
    os.polls += o.os.polls;
    os.timerTicks += o.os.timerTicks;
    os.pmis += o.os.pmis;
    os.syscallTicks += o.os.syscallTicks;
    os.pollTicks += o.os.pollTicks;
    os.otherTicks += o.os.otherTicks;
    contextSwitches += o.contextSwitches;
    pecReads += o.pecReads;
    baselineReads += o.baselineReads;
}

JobResult
runJob(const Job &job, bool traced, Clock::time_point epoch)
{
    JobResult out;
    const Clock::time_point start = Clock::now();
    try {
        switch (job.experiment) {
          case Experiment::E5:
            runCaseStudy(job, traced, epoch, out);
            break;
          case Experiment::E11:
            runSpecKernel(job, traced, epoch, out);
            break;
          case Experiment::E3:
            runReadDensity(job, traced, epoch, out);
            break;
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }
    out.hostS = seconds(start, Clock::now());
    return out;
}

namespace {

/** The published report of one experiment's jobs in a pass. */
std::string
partReport(const Part &part, unsigned reps, std::span<const Job> jobs,
           std::span<const JobResult> results)
{
    using limit::stats::Table;
    // Mean of `f` over a cell's successful replicates.
    const auto cellMean = [&](unsigned cell, auto f) {
        double sum = 0;
        unsigned n = 0;
        for (unsigned r = 0; r < reps; ++r) {
            const JobResult &res = results[cell * reps + r];
            if (res.error.empty()) {
                sum += f(res);
                ++n;
            }
        }
        return n == 0 ? 0.0 : sum / n;
    };

    std::string text;
    switch (part.experiment) {
      case Experiment::E5: {
        limit::prof::Report report;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobResult &r = results[i];
            if (r.error.empty())
                report.addSync(cellName(jobs[i]), r.report.sync,
                               r.report.totalCycles, r.outcome.workItems);
        }
        text += report
                    .syncSummaryTable("E5a: per-application "
                                      "synchronization summary")
                    .render();
        text += report
                    .syncDetailTable("E5b: per-lock-class / per-call-site "
                                     "detail")
                    .render();
        for (const auto &sec : report.syncSections()) {
            const auto chain = sec.profile.longestWaiterChain();
            text += sec.name + " longest waiter chain: " +
                    std::to_string(chain.waitCycles) + " cycles over " +
                    std::to_string(chain.tids.size()) + " threads\n";
        }
        text += report.syncSummaryMarkdown();
        break;
      }
      case Experiment::E11: {
        Table t("E11: SPEC-class kernels (25M-cycle runs)");
        t.header({"workload", "user IPC", "L1D miss%", "LLC MPKI",
                  "br MPKI", "dTLB MPKI", "kernel instr%", "cs/Mcyc"});
        for (unsigned c = 0; c < part.cells; ++c) {
            t.beginRow()
                .cell(cellName(jobs[c * reps]))
                .cell(cellMean(c, [](auto &r) { return r.report.ipc; }), 2)
                .cell(cellMean(c, [](auto &r) { return r.report.l1MissPct; }),
                      1)
                .cell(cellMean(c, [](auto &r) { return r.report.llcMpki; }), 2)
                .cell(cellMean(c, [](auto &r) { return r.report.branchMpki; }),
                      2)
                .cell(cellMean(c, [](auto &r) { return r.report.dtlbMpki; }),
                      2)
                .cell(cellMean(c, [](auto &r) { return r.report.kernelPct; }),
                      1)
                .cell(cellMean(c,
                               [](auto &r) {
                                   return r.report.switchesPerMcycle;
                               }),
                      1);
        }
        text = t.render();
        break;
      }
      case Experiment::E3: {
        const auto ops = [](const JobResult &r) {
            return static_cast<double>(r.outcome.workItems);
        };
        const double base = cellMean(0, ops);
        Table t("E3: OLTP throughput vs instrumentation density "
                "(30M-cycle run)");
        t.header({"reads per op", "method", "ops done", "slowdown"});
        for (unsigned c = 1; c < part.cells; ++c) {
            const double cell_ops = cellMean(c, ops);
            t.beginRow()
                .cell(densities[(c - 1) / numMethods].label)
                .cell(methods[(c - 1) % numMethods])
                .cell(static_cast<std::uint64_t>(cell_ops + 0.5))
                .cell(cell_ops > 0 ? base / cell_ops : 0.0, 2);
        }
        text = "uninstrumented ops in the same window: " +
               std::to_string(static_cast<std::uint64_t>(base + 0.5)) +
               "\n" + t.render();
        break;
      }
    }
    return text;
}

} // namespace

std::string
buildReport(Workload w, const std::vector<Job> &jobs,
            const std::vector<JobResult> &results)
{
    const unsigned reps = replicatesOf(w);
    std::string text;
    std::size_t first = 0;
    for (const Part &part : partsOf(w)) {
        const std::size_t n = part.cells * reps;
        text += partReport(part, reps,
                           std::span(jobs).subspan(first, n),
                           std::span(results).subspan(first, n));
        first += n;
    }
    return text;
}

} // namespace limitbench

/**
 * @file
 * Self-throughput benchmark: how fast is the simulator itself?
 *
 * Every other bench reports *simulated* quantities; this one reports
 * host throughput of the simulation loop, so optimizations to the hot
 * path (event application, cache model, run loop) show up as a number
 * that can be tracked across commits. Two scenarios probe the two
 * regimes the suite spends its time in:
 *
 *   - stream: one core running a pure compute kernel — the tight
 *     step/apply/ledger path with almost no kernel involvement;
 *   - oltp: four cores, six clients, syscalls, futexes and context
 *     switches — the scheduling- and memory-heavy path.
 *
 * The stream scenario is also re-run on the per-op reference scheduler
 * (--no-batch equivalent) and with the superblock replay cache off
 * (--no-superblock equivalent) so the horizon-batching and superblock
 * wins are measured in the same process, and on `--jobs` worker
 * threads via the
 * ParallelRunner to measure experiment-level scaling (distinct
 * simulations in parallel, the way the bench suite fans out;
 * single-simulation execution stays serial by design).
 *
 * Timing uses per-thread CPU time (CLOCK_THREAD_CPUTIME_ID), not wall
 * clock: CI runners and dev containers are routinely oversubscribed,
 * and wall clock there measures the neighbours' load, not this code.
 * CPU time is what the simulator actually consumed and is stable to a
 * few percent across runs on a noisy host.
 *
 * Results go to stdout as a table and to BENCH_selfperf.json in the
 * current directory for machine consumption (fields documented in
 * the README).
 */

#include <ctime>
#include <cstdio>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "analysis/profile_report.hh"
#include "analysis/runner.hh"
#include "analysis/sensitivity/engine.hh"
#include "analysis/sensitivity/param_space.hh"
#include "analysis/trace_report.hh"
#include "pec/pec.hh"
#include "prof/report.hh"
#include "stats/hdr_histogram.hh"
#include "stats/table.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"

namespace {

using namespace limit;

constexpr sim::Tick runTicks = 60'000'000;

/** CPU time consumed by the calling thread, in seconds. */
double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * CPU time consumed by the whole process, in seconds. The sensitivity
 * lattice fans its runs across ParallelRunner worker threads, so the
 * calling thread's clock misses nearly all of the work; the process
 * clock captures every worker and stays oversubscription-immune the
 * same way the per-thread clock does.
 */
double
processCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Throughput
{
    double instr = 0;    // guest instructions executed
    double cycles = 0;   // guest cycles elapsed (all cores)
    double hostSec = 0;  // thread CPU seconds
    double rounds = 0;   // scheduler rounds (batches)
    double ops = 0;      // guest ops across all rounds
    double sbReplayed = 0; // guest ops retired via superblock replay
    double sbBridged = 0;  // replayed-loop ops stall-bridged per-op
};

/** One-core compute kernel: the tight simulation hot path. */
Throughput
runStream(std::uint64_t seed, bool batched = true,
          bool superblocks = true, unsigned timeline_interval = 0)
{
    const double t0 = threadCpuSec();
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .seed(1 + seed)
                              .batched(batched)
                              .superblocks(superblocks)
                              .timelineInterval(timeline_interval)
                              .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    workloads::ComputeKernel k(b.kernel(), workloads::KernelKind::Stream,
                               16 << 20, 777 + seed);
    k.spawn();
    b.run(runTicks);
    Throughput out;
    out.hostSec = threadCpuSec() - t0;
    out.instr = static_cast<double>(analysis::totalEvent(
        b.kernel(), sim::EventType::Instructions));
    out.cycles = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::Cycles));
    out.rounds = static_cast<double>(b.machine().batchRounds());
    out.ops = static_cast<double>(b.machine().batchOps());
    const sim::SuperblockStats &sb = b.machine().superblockStats();
    out.sbReplayed = static_cast<double>(sb.opsReplayed);
    out.sbBridged = static_cast<double>(sb.stallBridges);
    return out;
}

/** Four-core OLTP: scheduling, syscalls and memory hierarchy. */
Throughput
runOltp(std::uint64_t seed, const analysis::BenchArgs *trace = nullptr)
{
    const double t0 = threadCpuSec();
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(4)
            .seed(1 + seed)
            .traceCapacity(trace ? trace->traceCap : 0)
            .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 99 + seed);
    oltp.spawn();
    b.run(runTicks);
    Throughput out;
    out.hostSec = threadCpuSec() - t0;
    out.instr = static_cast<double>(analysis::totalEvent(
        b.kernel(), sim::EventType::Instructions));
    out.cycles = static_cast<double>(
        analysis::totalEvent(b.kernel(), sim::EventType::Cycles));
    out.rounds = static_cast<double>(b.machine().batchRounds());
    out.ops = static_cast<double>(b.machine().batchOps());
    if (trace)
        analysis::writeTraceReport(b, trace->trace);
    return out;
}

/**
 * Deterministic PEC read-latency distribution: 20k consecutive fast
 * reads on one idle core, each visit's guest-visible duration into an
 * exact histogram. Simulated cycles, so the percentiles are
 * reproducible host-independently — the perf gate pins p99 exactly
 * (see scripts/check_selfperf.py).
 */
stats::HdrHistogram
pecReadLatency()
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).seed(1).build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    stats::HdrHistogram h;
    b.kernel().spawn("probe", [&](sim::Guest &g) -> sim::Task<void> {
        for (int i = 0; i < 20'000; ++i) {
            const sim::Tick t0 = g.now();
            const std::uint64_t v = co_await session.read(g, 0);
            (void)v;
            h.add(g.now() - t0);
        }
        co_return;
    });
    b.machine().run();
    return h;
}

/**
 * Sensitivity-lattice throughput: the full analysis::sensitivity
 * stack (ParamSpace expansion through the validating builder, the
 * ParallelRunner fan-out, per-axis derivative reduction) driven over
 * a small real-simulation lattice. Points-per-CPU-second is the
 * figure E15-style studies scale with, so it is gated like the other
 * headline throughputs.
 */
struct LatticeRun
{
    double runs = 0;   // simulations executed (baseline + points) x seeds
    double cpuSec = 0; // process CPU seconds consumed
};

LatticeRun
runLattice(unsigned jobs)
{
    using analysis::sensitivity::Axis;
    using analysis::sensitivity::Measurement;

    const double t0 = processCpuSec();
    analysis::sensitivity::ParamSpace space(
        analysis::BundleOptions::builder()
            .cores(1)
            .l1Size(4 * 1024)
            .build());
    space.add(Axis::l1Size({32 * 1024}))
        .add(Axis::l2Latency({24}))
        .add(Axis::memLatency({440}));

    analysis::sensitivity::Options opts;
    opts.scenario = "selfperf";
    opts.workMetric = "iters";
    opts.seeds = 2;
    opts.jobs = jobs;
    const auto section = analysis::sensitivity::analyze(
        space,
        [](const analysis::BundleOptions &base, std::uint64_t seed) {
            analysis::SimBundle b(
                analysis::BundleOptions::Builder::from(base)
                    .seed(seed)
                    .build());
            std::uint64_t iters = 0;
            b.kernel().spawn(
                "lat", [&](sim::Guest &g) -> sim::Task<void> {
                    g.declareLoop({{sim::OpKind::Load},
                                   {sim::OpKind::Compute, 2}});
                    while (!g.shouldStop()) {
                        co_await g.load(0x8000 + (iters % 256) * 64);
                        co_await g.compute(2);
                        ++iters;
                    }
                    co_return;
                });
            b.run(2'000'000);
            Measurement m;
            m.work = static_cast<double>(iters);
            return m;
        },
        opts);

    LatticeRun r;
    r.cpuSec = processCpuSec() - t0;
    r.runs = static_cast<double>((1 + space.points().size()) *
                                 opts.seeds);
    // The reduction must still have done its job: restoring the
    // shrunken L1 is the dominant axis on this lattice by design.
    if (section.axes.empty() || section.axes.front().axis != "l1_size")
        std::fprintf(stderr,
                     "selfperf lattice sanity: expected l1_size to "
                     "rank first\n");
    return r;
}

/** Best (max throughput) run of `reps` repetitions. */
template <typename Fn>
Throughput
best(unsigned reps, Fn &&fn)
{
    Throughput b{};
    for (unsigned i = 0; i < reps; ++i) {
        const Throughput t = fn(i);
        if (b.hostSec == 0 ||
            t.instr / t.hostSec > b.instr / b.hostSec)
            b = t;
    }
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    // --seeds = repetitions per scenario (best-of, to shed host
    // noise); --jobs = worker threads for the scaling section.
    const auto args = limit::analysis::parseBenchArgs(
        argc, argv, {.seeds = 3, .jobs = 0},
        "repetitions per scenario; the best run is reported");
    analysis::ParallelRunner pool(args.jobs);
    const unsigned jobs = pool.workers();

    const Throughput stream = best(args.seeds,
                                   [](unsigned i) { return runStream(i); });
    // Same probe on the per-op reference scheduler: the spread between
    // this row and the one above is the horizon-batching win. (Under
    // --no-batch / LIMITPP_FORCE_NO_BATCH both rows run per-op and
    // the speedup reads 1.0 by construction.)
    // (The per-op loop has no superblock cache, so it is passed
    // explicitly off — superblocks(true) without batching is a
    // builder-level contradiction.)
    const Throughput nobatch = best(args.seeds, [](unsigned i) {
        return runStream(i, /*batched=*/false, /*superblocks=*/false);
    });
    // Batched but with the superblock replay cache off: the spread
    // between this row and the hot-path row is the superblock win on
    // top of batching. (Under --no-superblock both run cache-off and
    // the speedup reads 1.0 by construction.)
    const Throughput nosb = best(args.seeds, [](unsigned i) {
        return runStream(i, /*batched=*/true, /*superblocks=*/false);
    });
    const Throughput oltp = best(args.seeds,
                                 [](unsigned i) { return runOltp(i); });
    // Hot path with the exact timeline recorder attached at the
    // default --timeline-interval: the spread against the plain stream
    // row is the full price of leaving --timeline on, and the perf
    // gate holds it under 5% (scripts/check_selfperf.py). With the
    // recorder detached the hook is a single predicted-not-taken
    // branch, so the plain row pays nothing.
    const Throughput tl = best(args.seeds, [](unsigned i) {
        return runStream(i, /*batched=*/true, /*superblocks=*/true,
                         /*timeline_interval=*/65536);
    });

    // Experiment-level scaling: `jobs` independent stream simulations
    // driven through the same runner the bench suite uses. Each job
    // measures its own thread CPU time; the scaling figure is
    // jobs x per-worker efficiency — the wall-clock speedup the
    // fan-out delivers on an otherwise-idle host with >= jobs cores.
    // Anything below jobs x 1.0 is software overhead (allocator or
    // lock contention, false sharing of result slots), which is what
    // this probe is built to catch; host oversubscription is not,
    // which is why wall clock is deliberately not used.
    const std::vector<Throughput> par = pool.map(
        jobs, [](std::size_t i) {
            return runStream(100 + static_cast<std::uint64_t>(i));
        });
    double par_instr = 0, par_cycles = 0, par_cpu = 0;
    for (const auto &t : par) {
        par_instr += t.instr;
        par_cycles += t.cycles;
        par_cpu += t.hostSec;
    }

    // Sensitivity-lattice throughput, serial then fanned out: the
    // points-per-CPU-second figure plus the same jobs x efficiency
    // scaling construction the parallel-runner row uses.
    const LatticeRun lat1 = runLattice(1);
    const LatticeRun latN = runLattice(jobs);
    const double lat1_pps = lat1.runs / lat1.cpuSec;
    const double latN_pps = latN.runs / latN.cpuSec;
    const double lat_scaling = jobs * (latN_pps / lat1_pps);

    const double stream_mips = stream.instr / 1e6 / stream.hostSec;
    const double tl_mips = tl.instr / 1e6 / tl.hostSec;
    const double timeline_overhead_pct =
        tl_mips == 0 ? 0 : 100.0 * (stream_mips / tl_mips - 1.0);
    const double nobatch_mips = nobatch.instr / 1e6 / nobatch.hostSec;
    const double nosb_mips = nosb.instr / 1e6 / nosb.hostSec;
    const double oltp_mips = oltp.instr / 1e6 / oltp.hostSec;
    const double par_mips = par_instr / 1e6 / par_cpu;
    const double scaling = jobs * (par_mips / stream_mips);
    const double batch_speedup = stream_mips / nobatch_mips;
    const double sb_speedup = stream_mips / nosb_mips;
    const double sb_ops = stream.sbReplayed + stream.sbBridged;
    const double sb_hit_rate =
        sb_ops == 0 ? 0 : stream.sbReplayed / sb_ops;
    const double ops_per_round =
        stream.rounds == 0 ? 0 : stream.ops / stream.rounds;

    Table t("Self-throughput: simulator performance on this host "
            "(60M-tick runs, thread-CPU time, best of " +
            std::to_string(args.seeds) + ")");
    t.header({"scenario", "guest Minstr", "host CPU s",
              "M guest-instr/s", "M guest-cyc/s"});
    t.beginRow()
        .cell("stream x1 (hot path)")
        .cell(stream.instr / 1e6, 1)
        .cell(stream.hostSec, 3)
        .cell(stream_mips, 1)
        .cell(stream.cycles / 1e6 / stream.hostSec, 1);
    t.beginRow()
        .cell("stream x1 (--no-batch)")
        .cell(nobatch.instr / 1e6, 1)
        .cell(nobatch.hostSec, 3)
        .cell(nobatch_mips, 1)
        .cell(nobatch.cycles / 1e6 / nobatch.hostSec, 1);
    t.beginRow()
        .cell("stream x1 (--no-superblock)")
        .cell(nosb.instr / 1e6, 1)
        .cell(nosb.hostSec, 3)
        .cell(nosb_mips, 1)
        .cell(nosb.cycles / 1e6 / nosb.hostSec, 1);
    t.beginRow()
        .cell("oltp x4 (sched+mem)")
        .cell(oltp.instr / 1e6, 1)
        .cell(oltp.hostSec, 3)
        .cell(oltp_mips, 1)
        .cell(oltp.cycles / 1e6 / oltp.hostSec, 1);
    t.beginRow()
        .cell("stream x" + std::to_string(jobs) + " (parallel runner)")
        .cell(par_instr / 1e6, 1)
        .cell(par_cpu, 3)
        .cell(par_mips, 1)
        .cell(par_cycles / 1e6 / par_cpu, 1);
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nhorizon batching: %.2fx the per-op scheduler "
                "(%.0f ops per scheduler round)\n",
                batch_speedup, ops_per_round);
    std::printf("superblock replay: %.2fx the cache-off batched loop "
                "(%.1f%% of guest ops replayed)\n",
                sb_speedup, 100.0 * sb_hit_rate);
    std::printf("parallel-runner scaling at %u jobs: %.2fx "
                "(jobs x per-worker CPU efficiency)\n",
                jobs, scaling);
    std::printf("sensitivity lattice: %.1f lattice runs/CPU-s serial, "
                "%.1f at %u jobs (scaling %.2fx)\n",
                lat1_pps, latN_pps, jobs, lat_scaling);
    std::printf("timeline recorder: %.2f%% overhead on stream at the "
                "default 65536-tick interval (%.1f M guest-instr/s)\n",
                timeline_overhead_pct, tl_mips);

    const stats::HdrHistogram read_lat = pecReadLatency();
    const std::uint64_t read_p50 = read_lat.quantile(0.5);
    const std::uint64_t read_p99 = read_lat.quantile(0.99);
    const std::uint64_t read_p999 = read_lat.quantile(0.999);
    std::printf("pec read latency (simulated cycles): p50 %llu  "
                "p99 %llu  p999 %llu over %llu reads\n",
                static_cast<unsigned long long>(read_p50),
                static_cast<unsigned long long>(read_p99),
                static_cast<unsigned long long>(read_p999),
                static_cast<unsigned long long>(read_lat.totalCount()));

    // Machine-readable copy for tracking the perf trajectory.
    std::FILE *json = std::fopen("BENCH_selfperf.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n"
            "  \"run_ticks\": %llu,\n"
            "  \"repetitions\": %u,\n"
            "  \"stream_minstr_per_sec\": %.2f,\n"
            "  \"stream_mcycles_per_sec\": %.2f,\n"
            "  \"stream_nobatch_minstr_per_sec\": %.2f,\n"
            "  \"batch_speedup_x\": %.3f,\n"
            "  \"batch_avg_ops_per_round\": %.1f,\n"
            "  \"superblock_minstr_per_sec\": %.2f,\n"
            "  \"stream_nosb_minstr_per_sec\": %.2f,\n"
            "  \"superblock_speedup_x\": %.3f,\n"
            "  \"superblock_hit_rate\": %.4f,\n"
            "  \"oltp_minstr_per_sec\": %.2f,\n"
            "  \"oltp_mcycles_per_sec\": %.2f,\n"
            "  \"parallel_jobs\": %u,\n"
            "  \"parallel_minstr_per_sec\": %.2f,\n"
            "  \"parallel_scaling_x\": %.3f,\n"
            "  \"sensitivity_points_per_sec\": %.2f,\n"
            "  \"sensitivity_scaling_x\": %.3f,\n"
            "  \"timeline_overhead_pct\": %.2f,\n"
            "  \"pec_read_p50_cycles\": %llu,\n"
            "  \"pec_read_p99_cycles\": %llu,\n"
            "  \"pec_read_p999_cycles\": %llu\n"
            "}\n",
            static_cast<unsigned long long>(runTicks), args.seeds,
            stream_mips, stream.cycles / 1e6 / stream.hostSec,
            nobatch_mips, batch_speedup, ops_per_round,
            stream_mips, nosb_mips, sb_speedup, sb_hit_rate,
            oltp_mips, oltp.cycles / 1e6 / oltp.hostSec, jobs,
            par_mips, scaling,
            latN_pps, lat_scaling,
            timeline_overhead_pct,
            static_cast<unsigned long long>(read_p50),
            static_cast<unsigned long long>(read_p99),
            static_cast<unsigned long long>(read_p999));
        std::fclose(json);
        std::puts("wrote BENCH_selfperf.json");
    }

    // Dedicated traced re-run of the scheduling-heavy scenario; never
    // part of the timed best-of runs above, so throughput numbers are
    // identical with and without --trace.
    if (args.tracing())
        runOltp(0, &args);
    if (args.profile) {
        prof::Report report;
        report.addHistogram("pec_read_latency_cycles", read_lat);
        analysis::writeProfile(report, args, "bench_selfperf");
    }
    return 0;
}

/**
 * @file
 * E11 — Characterizing web-era applications against SPEC-class
 * kernels (the paper's "fresh insights" comparison).
 *
 * One table of microarchitectural rates per workload, produced from
 * the precise per-thread counters. Expected shape: the interactive/
 * server apps differ qualitatively from the compute kernels — more
 * kernel time, more context switches, worse branch behaviour than
 * the regular kernels, cache behaviour in between the streaming and
 * pointer-chasing extremes.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "analysis/profile_report.hh"
#include "analysis/runner.hh"
#include "analysis/trace_report.hh"
#include "stats/table.hh"
#include "workloads/browser.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"
#include "workloads/webserver.hh"

namespace {

using namespace limit;

struct Row
{
    std::string name;
    double ipc;        // user instructions per user cycle
    double l1MissPct;  // L1D misses per data access, %
    double llcMpki;    // LLC misses per kilo-instruction
    double branchMpki; // branch misses per kilo-instruction
    double dtlbMpki;
    double kernelPct;
    double switchesPerMcycle;
};

Row
characterize(const std::string &which, std::uint64_t seed,
             const analysis::BenchArgs *trace = nullptr)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(4)
            .quantum(1'000'000)
            .seed(1 + seed)
            .traceCapacity(trace ? trace->captureCap() : 0)
            .timelineInterval(
                trace ? trace->captureTimelineInterval() : 0)
            .build());

    std::unique_ptr<workloads::OltpServer> oltp;
    std::unique_ptr<workloads::WebServer> web;
    std::unique_ptr<workloads::BrowserLoop> browser;
    std::unique_ptr<workloads::ComputeKernel> kern;

    if (which == "oltp (MySQL-like)") {
        workloads::OltpConfig cfg;
        cfg.clients = 6;
        cfg.rowsPerTable = 1 << 18; // big leaves: real cache pressure
        oltp = std::make_unique<workloads::OltpServer>(
            b.machine(), b.kernel(), cfg, 777 + seed);
        oltp->spawn();
    } else if (which == "web (Apache-like)") {
        workloads::WebConfig cfg;
        cfg.workers = 6;
        web = std::make_unique<workloads::WebServer>(
            b.machine(), b.kernel(), cfg, 777 + seed);
        web->spawn();
    } else if (which == "browser (Firefox-like)") {
        workloads::BrowserConfig cfg;
        browser = std::make_unique<workloads::BrowserLoop>(
            b.machine(), b.kernel(), cfg, 777 + seed);
        browser->spawn();
    } else {
        workloads::KernelKind kind = workloads::KernelKind::Stream;
        if (which == "spec-like: ptrchase")
            kind = workloads::KernelKind::PtrChase;
        else if (which == "spec-like: matmul")
            kind = workloads::KernelKind::MatMul;
        else if (which == "spec-like: sortlike")
            kind = workloads::KernelKind::SortLike;
        kern = std::make_unique<workloads::ComputeKernel>(
            b.kernel(), kind, 16 << 20, 777 + seed);
        kern->spawn();
    }

    b.run(25'000'000);

    using sim::EventType;
    using sim::PrivMode;
    auto &k = b.kernel();
    const double u_instr = static_cast<double>(analysis::totalEvent(
        k, EventType::Instructions, PrivMode::User));
    const double u_cycles = static_cast<double>(
        analysis::totalEvent(k, EventType::Cycles, PrivMode::User));
    const double k_instr = static_cast<double>(analysis::totalEvent(
        k, EventType::Instructions, PrivMode::Kernel));
    const double accesses = static_cast<double>(
        analysis::totalEvent(k, EventType::Loads) +
        analysis::totalEvent(k, EventType::Stores));
    const double l1 = static_cast<double>(
        analysis::totalEvent(k, EventType::L1DMiss));
    const double llc = static_cast<double>(
        analysis::totalEvent(k, EventType::LLCMiss));
    const double br = static_cast<double>(
        analysis::totalEvent(k, EventType::BranchMisses));
    const double dtlb = static_cast<double>(
        analysis::totalEvent(k, EventType::DTlbMiss));
    const double all_cycles = static_cast<double>(
        analysis::totalEvent(k, EventType::Cycles));

    Row r;
    r.name = which;
    r.ipc = u_instr / u_cycles;
    r.l1MissPct = accesses > 0 ? 100.0 * l1 / accesses : 0;
    r.llcMpki = 1000.0 * llc / (u_instr + k_instr);
    r.branchMpki = 1000.0 * br / (u_instr + k_instr);
    r.dtlbMpki = 1000.0 * dtlb / (u_instr + k_instr);
    r.kernelPct = 100.0 * k_instr / (u_instr + k_instr);
    r.switchesPerMcycle =
        1e6 * static_cast<double>(k.totalContextSwitches()) /
        all_cycles;
    if (trace)
        analysis::writeStandardArtifacts(b, *trace, "bench_e11_characterization");
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    const auto args = limit::analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "workload seeds averaged per row");

    Table t("E11: web-era applications vs SPEC-class kernels "
            "(25M-cycle runs)");
    t.header({"workload", "user IPC", "L1D miss%", "LLC MPKI",
              "br MPKI", "dTLB MPKI", "kernel instr%", "cs/Mcyc"});

    const std::vector<std::string> names = {
        "oltp (MySQL-like)",   "web (Apache-like)",
        "browser (Firefox-like)", "spec-like: stream",
        "spec-like: ptrchase", "spec-like: matmul",
        "spec-like: sortlike"};
    limit::analysis::ParallelRunner pool(args.jobs);
    const std::vector<Row> runs = pool.map(
        names.size() * args.seeds, [&](std::size_t i) {
            return characterize(names[i / args.seeds], i % args.seeds);
        });

    for (std::size_t w = 0; w < names.size(); ++w) {
        Row sum{};
        for (unsigned s = 0; s < args.seeds; ++s) {
            const Row &r = runs[w * args.seeds + s];
            sum.ipc += r.ipc;
            sum.l1MissPct += r.l1MissPct;
            sum.llcMpki += r.llcMpki;
            sum.branchMpki += r.branchMpki;
            sum.dtlbMpki += r.dtlbMpki;
            sum.kernelPct += r.kernelPct;
            sum.switchesPerMcycle += r.switchesPerMcycle;
        }
        const double n = args.seeds;
        t.beginRow()
            .cell(names[w])
            .cell(sum.ipc / n, 2)
            .cell(sum.l1MissPct / n, 1)
            .cell(sum.llcMpki / n, 2)
            .cell(sum.branchMpki / n, 2)
            .cell(sum.dtlbMpki / n, 2)
            .cell(sum.kernelPct / n, 1)
            .cell(sum.switchesPerMcycle / n, 1);
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nShape check: the applications occupy a different "
              "corner of the design space than SPEC-class kernels — "
              "nontrivial kernel shares, frequent context switches,\n"
              "and mixed locality — supporting the paper's implication "
              "that cloud-era workloads need their own "
              "characterization.");

    if (args.instrumented())
        characterize(names[0], 0, &args);
    return 0;
}

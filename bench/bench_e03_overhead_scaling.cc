/**
 * @file
 * E3 — Application slowdown vs. instrumentation density.
 *
 * Runs the OLTP engine for a fixed simulated duration while reading a
 * counter after every R-th database operation, for each access
 * method, and reports throughput relative to the uninstrumented run.
 * Expected shape (paper): syscall-based methods become unusable at
 * high density (large slowdowns) while the PEC fast read stays within
 * a few percent — which is what makes dense instrumentation (per
 * lock acquisition, per handler) feasible at all.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/args.hh"
#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "analysis/runner.hh"
#include "base/logging.hh"
#include "baseline/source_set.hh"
#include "stats/table.hh"
#include "workloads/oltp.hh"

namespace {

using namespace limit;

constexpr sim::Tick runTicks = 30'000'000;

/**
 * One OLTP run instrumented through a unified counter source (null
 * spec = uninstrumented baseline). All methods flow through the same
 * limit::CounterSource interface; the bench only varies density.
 */
std::uint64_t
runOnce(const baseline::SourceSpec *spec, unsigned read_every,
        unsigned reads_per_hook, std::uint64_t seed,
        const analysis::BenchArgs *trace = nullptr)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(4)
            .seed(1 + seed)
            .capture(trace)
            .build());

    baseline::SourceInstance inst;
    if (spec)
        inst = spec->make(b.kernel(), 0, sim::EventType::Cycles, true,
                          true);

    workloads::OltpConfig cfg;
    cfg.clients = 6;
    if (inst.source) {
        limit::CounterSource *source = inst.source.get();
        cfg.hookEvery = read_every;
        cfg.opHook =
            [source, reads_per_hook](sim::Guest &g) -> sim::Task<void> {
            for (unsigned i = 0; i < reads_per_hook; ++i) {
                const std::uint64_t v = co_await source->read(g, 0);
                (void)v;
            }
        };
    }
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 99 + seed);
    oltp.spawn();
    b.run(runTicks);
    if (trace)
        analysis::writeArtifacts(*trace, "bench_e03_overhead_scaling", b);
    return oltp.operations();
}

/** Find a roster entry by its stable label. */
const baseline::SourceSpec &
findSpec(const std::vector<baseline::SourceSpec> &roster,
         const std::string &label)
{
    for (const auto &s : roster) {
        if (s.label == label)
            return s;
    }
    fatal("no counter source labelled '", label,
          "' in the standard roster");
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    const auto args = analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "OLTP workload seeds averaged per table cell");

    struct Density
    {
        const char *label;
        unsigned every;
        unsigned reads;
    };
    // From sparse spot checks to the dense multi-counter segment
    // instrumentation the case studies need (reads at every lock
    // event, several counters each).
    const Density densities[] = {
        {"1/16", 16, 1}, {"1/4", 4, 1}, {"1", 1, 1},
        {"4", 1, 4},     {"16", 1, 16},
    };
    // The density sweep uses the three methods the paper contrasts,
    // pulled from the same roster E1 tabulates in full.
    const auto roster = limit::baseline::standardSources();
    const std::vector<const limit::baseline::SourceSpec *> methods = {
        &findSpec(roster, "pec/kernel-fixup"),
        &findSpec(roster, "papi-like"),
        &findSpec(roster, "perf-syscall"),
    };

    // One job per (table cell, seed): the uninstrumented baseline
    // first, then every density x method point. Each job owns its
    // whole simulated machine, so the fan-out is embarrassingly
    // parallel and results are independent of worker count.
    struct Job
    {
        const limit::baseline::SourceSpec *spec;
        unsigned every;
        unsigned reads;
        std::uint64_t seed;
    };
    std::vector<Job> jobs;
    for (unsigned s = 0; s < args.seeds; ++s)
        jobs.push_back({nullptr, 1, 0, s});
    for (const auto &d : densities) {
        for (const auto *m : methods) {
            for (unsigned s = 0; s < args.seeds; ++s)
                jobs.push_back({m, d.every, d.reads, s});
        }
    }
    analysis::ParallelRunner pool(args.jobs);
    const std::vector<std::uint64_t> ops = pool.map(
        jobs.size(), [&](std::size_t i) {
            const Job &j = jobs[i];
            return runOnce(j.spec, j.every, j.reads, j.seed);
        });

    std::size_t cursor = 0;
    auto mean_ops = [&]() {
        double sum = 0;
        for (unsigned s = 0; s < args.seeds; ++s)
            sum += static_cast<double>(ops[cursor++]);
        return sum / args.seeds;
    };
    const double baseline_ops = mean_ops();

    Table t("E3: OLTP throughput vs instrumentation density "
            "(counter reads per DB operation; 30M-cycle run)");
    t.header({"reads per op", "method", "ops done", "slowdown"});
    for (const auto &d : densities) {
        for (const auto *m : methods) {
            const double cell_ops = mean_ops();
            t.beginRow()
                .cell(d.label)
                .cell(m->label)
                .cell(static_cast<std::uint64_t>(cell_ops + 0.5))
                .cell(baseline_ops / cell_ops, 2);
        }
    }
    std::printf("uninstrumented ops in the same window: %llu\n\n",
                static_cast<unsigned long long>(baseline_ops + 0.5));
    std::fputs(t.render().c_str(), stdout);
    std::puts("\nShape check: pec stays within a few percent even at "
              "one read per operation; syscall methods degrade "
              "severely as density rises.");

    // The exact table EXPERIMENTS.md embeds — regenerate by pasting.
    std::puts("\nEXPERIMENTS.md (E3) markdown:");
    std::fputs(t.renderMarkdown().c_str(), stdout);

    // Dedicated traced re-run: densest PEC instrumentation, so the
    // timeline carries syscall, futex and switch traffic.
    if (args.instrumented())
        runOnce(methods[0], 1, 1, 0, &args);
    return 0;
}

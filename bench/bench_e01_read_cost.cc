/**
 * @file
 * E1 — Counter access cost (the paper's headline table).
 *
 * Measures the average cost of one 64-bit virtualized counter read
 * for every access method, in simulated cycles and nanoseconds at the
 * nominal 3 GHz clock. Expected shape (paper): the PEC fast read
 * lands in the low tens of nanoseconds; PAPI-class reads are roughly
 * an order of magnitude slower; perf_event syscall reads one to two
 * orders of magnitude slower.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/args.hh"
#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "analysis/runner.hh"
#include "baseline/source_set.hh"
#include "stats/table.hh"

namespace {

using namespace limit;

/** Average guest cost of one read, measured over many iterations. */
sim::Tick
measure(limit::CounterSource &reader, analysis::SimBundle &bundle)
{
    constexpr int reps = 2000;
    sim::Tick total = 0;
    bundle.kernel().spawn(
        "measure", [&](sim::Guest &g) -> sim::Task<void> {
            // Warm-up: first-touch costs (TLB, cache) out of the way.
            for (int i = 0; i < 16; ++i) {
                const std::uint64_t v = co_await reader.read(g, 0);
                (void)v;
            }
            const sim::Tick t0 = g.now();
            for (int i = 0; i < reps; ++i) {
                const std::uint64_t v = co_await reader.read(g, 0);
                (void)v;
            }
            total = g.now() - t0;
            co_return;
        });
    bundle.machine().run();
    return total / reps;
}

struct Row
{
    std::string method;
    sim::Tick cycles;
};

/**
 * Measure one access method from the standard roster. Every method
 * goes through the same limit::CounterSource interface, so the bench
 * body has no per-method branching — adding a source to
 * baseline::standardSources() adds a table row here.
 */
Row
runMethod(const baseline::SourceSpec &spec, std::uint64_t seed,
          const analysis::BenchArgs *trace = nullptr)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder()
            .cores(1)
            .seed(1 + seed)
            .capture(trace)
            .build());
    baseline::SourceInstance inst =
        spec.make(b.kernel(), 0, sim::EventType::Instructions, true,
                  false);
    Row row{inst.source->name(), measure(*inst.source, b)};
    if (trace)
        analysis::writeArtifacts(*trace, "bench_e01_read_cost", b);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using limit::stats::Table;

    const auto args = limit::analysis::parseBenchArgs(
        argc, argv, {.seeds = 1, .jobs = 1},
        "simulation seeds averaged per method");

    const std::vector<limit::baseline::SourceSpec> methods =
        limit::baseline::standardSources();
    const unsigned numMethods = static_cast<unsigned>(methods.size());

    limit::analysis::ParallelRunner pool(args.jobs);
    const std::vector<Row> raw = pool.map(
        numMethods * args.seeds, [&](std::size_t i) {
            return runMethod(methods[i / args.seeds], i % args.seeds);
        });
    std::vector<Row> rows;
    for (unsigned m = 0; m < numMethods; ++m) {
        double sum = 0;
        for (unsigned s = 0; s < args.seeds; ++s)
            sum += static_cast<double>(raw[m * args.seeds + s].cycles);
        rows.push_back({raw[m * args.seeds].method,
                        static_cast<sim::Tick>(sum / args.seeds + 0.5)});
    }

    const double pec_ns = sim::ticksToNs(rows[0].cycles);

    Table t("E1: cost of one virtualized counter read "
            "(simulated, 3 GHz nominal)");
    t.header({"method", "cycles/read", "ns/read", "slowdown vs pec"});
    for (const auto &r : rows) {
        t.beginRow()
            .cell(r.method)
            .cell(static_cast<std::uint64_t>(r.cycles))
            .cell(sim::ticksToNs(r.cycles), 1)
            .cell(sim::ticksToNs(r.cycles) / pec_ns, 1);
    }
    std::fputs(t.render().c_str(), stdout);

    std::printf("\nPaper shape check: pec read = %.1f ns (low tens of "
                "ns), papi ~%.0fx, perf-syscall ~%.0fx (one to two "
                "orders of magnitude).\n",
                pec_ns, sim::ticksToNs(rows[3].cycles) / pec_ns,
                sim::ticksToNs(rows[4].cycles) / pec_ns);

    // The exact table EXPERIMENTS.md embeds — regenerate by pasting.
    std::puts("\nEXPERIMENTS.md (E1) markdown:");
    std::fputs(t.renderMarkdown().c_str(), stdout);

    // Dedicated traced re-run of the headline method.
    if (args.instrumented())
        runMethod(methods[0], 0, &args);
    return 0;
}

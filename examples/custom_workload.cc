/**
 * @file
 * Scenario: bring your own workload.
 *
 * API tour for users adding their own guest programs: write the
 * program as a coroutine over the Guest op interface, use the
 * synchronization library, declare regions for the phases you care
 * about, and measure them precisely — including per-phase cache
 * events, not just cycles.
 *
 *   $ build/examples/custom_workload
 */

#include <cstdio>

#include "analysis/bundle.hh"
#include "mem/address_stream.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "stats/table.hh"
#include "sync/condvar.hh"
#include "sync/mutex.hh"

using namespace limit;

namespace {

/**
 * A toy pipeline: producers hash items into a shared table under a
 * lock; a consumer drains completed batches. Three phases of
 * interest: "hash", "insert" (the critical section), and "drain".
 */
struct Pipeline
{
    mem::AddressSpace space;
    mem::Region table{0, 0};
    sync::Mutex lock{0};
    std::uint64_t inserted = 0;
    std::uint64_t drained = 0;

    Pipeline()
        : table{space.allocate(1 << 20, 4096), 1 << 20},
          lock(space.allocate(64, 64))
    {}
};

sim::Task<void>
producer(sim::Guest &g, Pipeline &p, pec::RegionProfiler &prof,
         sim::RegionId hash_r, sim::RegionId insert_r)
{
    mem::UniformStream keys(p.table, g.rng().fork());
    while (!g.shouldStop()) {
        // Phase 1: hash the item (pure compute).
        co_await prof.enter(g, hash_r);
        co_await g.compute(800);
        co_await prof.exit(g, hash_r);

        // Phase 2: insert under the shared lock (short critical
        // section with two cache-line touches).
        co_await prof.enter(g, insert_r);
        co_await p.lock.lock(g);
        const sim::Addr slot = keys.next();
        co_await g.load(slot);
        co_await g.store(slot);
        ++p.inserted;
        co_await p.lock.unlock(g);
        co_await prof.exit(g, insert_r);
    }
}

sim::Task<void>
consumer(sim::Guest &g, Pipeline &p, pec::RegionProfiler &prof,
         sim::RegionId drain_r)
{
    mem::StrideStream scan(p.table, 64);
    while (!g.shouldStop()) {
        co_await g.syscall(os::sysSleep, {200'000, 0, 0, 0});
        // Phase 3: drain a batch (streaming scan).
        co_await prof.enter(g, drain_r);
        for (int i = 0; i < 256; ++i) {
            const sim::Addr a = scan.next();
            co_await g.load(a);
            co_await g.compute(10);
        }
        p.drained += 256;
        co_await prof.exit(g, drain_r);
    }
}

} // namespace

int
main()
{
    analysis::SimBundle bundle(
        analysis::BundleOptions::builder().build());

    // Measure cycles AND L1D misses per phase on two counters.
    pec::PecSession session(bundle.kernel());
    session.addEvent(0, sim::EventType::Cycles, true, true);
    session.addEvent(1, sim::EventType::L1DMiss, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0, 1};
    pec::RegionProfiler prof(session, rc);

    auto &regions = bundle.machine().regions();
    const auto hash_r = regions.intern("pipeline.hash");
    const auto insert_r = regions.intern("pipeline.insert");
    const auto drain_r = regions.intern("pipeline.drain");

    Pipeline pipeline;
    bundle.kernel().spawn("calibrate",
                          [&](sim::Guest &g) -> sim::Task<void> {
                              co_await prof.calibrate(g);
                          });
    for (int i = 0; i < 3; ++i) {
        bundle.kernel().spawn(
            "producer" + std::to_string(i),
            [&](sim::Guest &g) -> sim::Task<void> {
                co_await producer(g, pipeline, prof, hash_r, insert_r);
            });
    }
    bundle.kernel().spawn("consumer",
                          [&](sim::Guest &g) -> sim::Task<void> {
                              co_await consumer(g, pipeline, prof,
                                                drain_r);
                          });

    bundle.run(20'000'000);

    stats::Table t("pipeline phase profile (precise, per visit)");
    t.header({"phase", "visits", "mean cycles", "mean L1D misses",
              "p95 cycles"});
    for (auto [name, r] :
         {std::pair{"hash", hash_r}, std::pair{"insert", insert_r},
          std::pair{"drain", drain_r}}) {
        const auto &s = prof.stats(r);
        t.beginRow()
            .cell(name)
            .cell(s.entries)
            .cell(s.mean(0), 0)
            .cell(s.mean(1), 2)
            .cell(s.histogram.quantile(0.95));
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\ninserted %llu items, drained %llu\n",
                static_cast<unsigned long long>(pipeline.inserted),
                static_cast<unsigned long long>(pipeline.drained));
    return 0;
}

/**
 * @file
 * Mode-equivalence harness shared by tests/test_batch.cc and
 * tests/test_superblock.cc.
 *
 * The simulator has two execution modes: horizon batching, which
 * replays every loop a guest declared, and the per-op reference
 * scheduler, its bit-identity oracle. Each scenario in those files
 * runs under both (BundleOptions::batched) and hands the finished
 * bundles to collect(); expectIdentical() then compares the whole
 * observable machine state field by field.
 */

#ifndef LIMIT_TESTS_EQUIVALENCE_HH
#define LIMIT_TESTS_EQUIVALENCE_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/bundle.hh"
#include "mem/hierarchy.hh"
#include "sim/superblock.hh"
#include "trace/trace.hh"

namespace limit::equiv {

/** Everything observable about a finished run. */
struct Fingerprint
{
    sim::Tick end = 0;
    std::uint64_t switches = 0;
    /** thread-major, then mode-major, then event: exact ledgers. */
    std::vector<std::uint64_t> ledgers;
    /** core-major, then counter index: final PMU values. */
    std::vector<std::uint64_t> pmuFinals;
    std::vector<trace::TraceRecord> records;
    /**
     * Core-major L1D, L2 and DTLB hits and misses, then the LLC's
     * (empty on flat memory): replay must leave the model in the
     * state per-op accesses would.
     */
    std::vector<std::uint64_t> mem;
    /** Replay activity; not compared (per-op never replays). */
    sim::SuperblockStats sb{};
};

inline Fingerprint
collect(analysis::SimBundle &b, sim::Tick end)
{
    Fingerprint fp;
    fp.end = end;
    fp.switches = b.kernel().totalContextSwitches();
    for (unsigned t = 0; t < b.kernel().numThreads(); ++t) {
        const auto &ledger = b.kernel().thread(t).ctx.ledger();
        for (unsigned m = 0; m < 2; ++m) {
            for (unsigned e = 0; e < sim::numEventTypes; ++e) {
                fp.ledgers.push_back(
                    ledger.count(static_cast<sim::EventType>(e),
                                 static_cast<sim::PrivMode>(m)));
            }
        }
    }
    for (unsigned c = 0; c < b.machine().numCores(); ++c) {
        const auto &pmu = b.machine().cpu(c).pmu();
        for (unsigned k = 0; k < pmu.numCounters(); ++k)
            fp.pmuFinals.push_back(pmu.read(k));
    }
    if (b.tracer() != nullptr)
        fp.records = b.tracer()->merged();
    if (mem::CacheHierarchy *h = b.hierarchy()) {
        for (unsigned c = 0; c < b.machine().numCores(); ++c) {
            fp.mem.insert(fp.mem.end(),
                          {h->l1d(c).hits(), h->l1d(c).misses(),
                           h->l2(c).hits(), h->l2(c).misses(),
                           h->dtlb(c).hits(), h->dtlb(c).misses()});
        }
        fp.mem.insert(fp.mem.end(), {h->llc().hits(), h->llc().misses()});
    }
    fp.sb = b.machine().superblockStats();
    return fp;
}

inline void
expectIdentical(const Fingerprint &batched, const Fingerprint &perop)
{
    EXPECT_EQ(batched.end, perop.end);
    EXPECT_EQ(batched.switches, perop.switches);
    EXPECT_EQ(batched.ledgers, perop.ledgers);
    EXPECT_EQ(batched.pmuFinals, perop.pmuFinals);
    EXPECT_EQ(batched.mem, perop.mem);
    ASSERT_EQ(batched.records.size(), perop.records.size());
    for (std::size_t i = 0; i < batched.records.size(); ++i) {
        const trace::TraceRecord &a = batched.records[i];
        const trace::TraceRecord &b = perop.records[i];
        EXPECT_EQ(a.tick, b.tick) << "record " << i;
        EXPECT_EQ(a.a0, b.a0) << "record " << i;
        EXPECT_EQ(a.a1, b.a1) << "record " << i;
        EXPECT_EQ(a.tid, b.tid) << "record " << i;
        EXPECT_EQ(a.core, b.core) << "record " << i;
        EXPECT_EQ(static_cast<unsigned>(a.event),
                  static_cast<unsigned>(b.event))
            << "record " << i;
    }
}

} // namespace limit::equiv

#endif // LIMIT_TESTS_EQUIVALENCE_HH

/**
 * @file
 * Parameterized property suites: the library's core invariants swept
 * across configuration space rather than spot-checked.
 *
 *  - PEC read exactness for every safe policy x counter width, under
 *    preemption and overflow.
 *  - Mutual exclusion and progress for every thread/core mix.
 *  - Whole-machine determinism across topologies and workloads.
 *  - PMU wrap arithmetic vs. an independent reference model.
 *  - Cache LRU behaviour vs. a reference implementation.
 */

#include <gtest/gtest.h>

#include <list>
#include <tuple>

#include "analysis/bundle.hh"
#include "mem/cache.hh"
#include "os/kernel.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sync/mutex.hh"
#include "workloads/oltp.hh"

namespace limit {
namespace {

using os::Kernel;
using pec::OverflowPolicy;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;

sim::ComputeProfile
straightLine()
{
    sim::ComputeProfile p;
    p.branchFrac = 0.0;
    p.mispredictRate = 0.0;
    return p;
}

// ---------------------------------------------------------------------
// PEC exactness sweep
// ---------------------------------------------------------------------

using ExactnessParam = std::tuple<OverflowPolicy, unsigned /*width*/>;

class PecExactnessSweep
    : public ::testing::TestWithParam<ExactnessParam>
{
};

TEST_P(PecExactnessSweep, FinalReadMatchesLedgerUnderPreemption)
{
    const auto [policy, width] = GetParam();
    // Instructions retired after the final read's value capture:
    // the read routine's tail differs per policy.
    const std::uint64_t tail =
        policy == OverflowPolicy::KernelFixup ? 4 : 7;

    MachineConfig mc;
    mc.numCores = 1;
    mc.costs.quantum = 7'000; // frequent preemption
    mc.pmuFeatures.counterWidth = width;
    Machine m(mc);
    Kernel k(m);
    pec::PecConfig pc;
    pc.policy = policy;
    pec::PecSession s(k, pc);
    s.addEvent(0, EventType::Instructions);

    std::uint64_t final_read[2] = {0, 0};
    std::vector<std::uint64_t> trace[2];
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i),
                [&, i](Guest &g) -> Task<void> {
                    for (int j = 0; j < 60; ++j) {
                        co_await g.compute(211 + 13 * i,
                                           straightLine());
                        const std::uint64_t v = co_await s.read(g, 0);
                        trace[i].push_back(v);
                    }
                    final_read[i] = co_await s.read(g, 0);
                    co_return;
                });
    }
    m.run();

    for (int i = 0; i < 2; ++i) {
        const std::uint64_t truth =
            k.thread(i).ctx.ledger().count(EventType::Instructions,
                                           PrivMode::User);
        EXPECT_EQ(final_read[i], truth - tail) << "thread " << i;
        for (size_t j = 1; j < trace[i].size(); ++j) {
            ASSERT_GE(trace[i][j], trace[i][j - 1])
                << "thread " << i << " read " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyWidth, PecExactnessSweep,
    ::testing::Combine(
        ::testing::Values(OverflowPolicy::KernelFixup,
                          OverflowPolicy::DoubleCheck),
        ::testing::Values(8u, 10u, 12u, 16u, 24u, 48u)),
    [](const auto &info) {
        // NOTE: no structured bindings here — a comma inside [] splits
        // the surrounding macro's arguments.
        std::string name = pec::policyName(std::get<0>(info.param));
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Mutual exclusion sweep
// ---------------------------------------------------------------------

using ExclusionParam = std::tuple<unsigned /*threads*/, unsigned /*cores*/>;

class MutexExclusionSweep
    : public ::testing::TestWithParam<ExclusionParam>
{
};

TEST_P(MutexExclusionSweep, ExclusionAndProgress)
{
    const auto [threads, cores] = GetParam();
    MachineConfig mc;
    mc.numCores = cores;
    mc.costs.quantum = 25'000;
    Machine m(mc);
    Kernel k(m);
    sync::Mutex mu(0x1000);
    int inside = 0, max_inside = 0;
    std::uint64_t counter = 0;
    constexpr int per_thread = 40;
    for (unsigned i = 0; i < threads; ++i) {
        k.spawn("t" + std::to_string(i), [&](Guest &g) -> Task<void> {
            for (int j = 0; j < per_thread; ++j) {
                co_await mu.lock(g);
                max_inside = std::max(max_inside, ++inside);
                ++counter;
                co_await g.compute(100 + (j % 5) * 40);
                --inside;
                co_await mu.unlock(g);
                co_await g.compute(50);
            }
            co_return;
        });
    }
    m.run();
    EXPECT_EQ(max_inside, 1);
    EXPECT_EQ(counter, threads * per_thread);
    EXPECT_FALSE(mu.lockedHost());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsCores, MutexExclusionSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 5u, 8u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        return "t" + std::to_string(std::get<0>(info.param)) + "_c" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Determinism sweep
// ---------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DeterminismSweep, OltpBitIdenticalAcrossRuns)
{
    const unsigned cores = GetParam();
    auto run_once = [cores] {
        analysis::SimBundle b(analysis::BundleOptions::builder()
                                  .cores(cores)
                                  .quantum(60'000)
                                  .build());
        workloads::OltpConfig cfg;
        cfg.clients = cores + 2;
        workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 31);
        oltp.spawn();
        const sim::Tick end = b.run(2'500'000);
        return std::tuple{end, oltp.committed(),
                          analysis::totalEvent(b.kernel(),
                                               EventType::Cycles),
                          analysis::totalEvent(b.kernel(),
                                               EventType::L1DMiss),
                          b.kernel().totalContextSwitches()};
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Cores, DeterminismSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u),
                         [](const auto &info) {
                             return "c" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// PMU wrap arithmetic vs. reference model
// ---------------------------------------------------------------------

class PmuWrapProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PmuWrapProperty, RandomDeltasMatchReferenceModel)
{
    const unsigned width = GetParam();
    sim::PmuFeatures f;
    f.counterWidth = width;
    sim::Pmu pmu(1, f);
    sim::CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    cfg.countKernel = true;
    pmu.configure(0, cfg);

    Rng rng(width * 1234567ull);
    unsigned __int128 value = 0;
    const unsigned __int128 modulus =
        static_cast<unsigned __int128>(1) << width;

    for (int i = 0; i < 5000; ++i) {
        sim::EventDeltas d;
        // Mix small and wrap-scale deltas.
        const std::uint64_t delta = rng.chance(0.1)
            ? rng.below(1ull << std::min(width + 2, 63u))
            : rng.below(64);
        d[EventType::Cycles] = delta;
        const auto mode =
            rng.chance(0.5) ? PrivMode::User : PrivMode::Kernel;
        const sim::OverflowSet ov = pmu.apply(mode, d);

        const unsigned __int128 sum = value + delta;
        const auto expected_wraps =
            static_cast<std::uint32_t>(sum / modulus);
        value = sum % modulus;

        ASSERT_EQ(ov.wraps[0], expected_wraps) << "step " << i;
        ASSERT_EQ(pmu.read(0), static_cast<std::uint64_t>(value))
            << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, PmuWrapProperty,
                         ::testing::Values(8u, 12u, 16u, 32u, 48u),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Cache LRU vs. reference implementation
// ---------------------------------------------------------------------

class CacheLruProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheLruProperty, MatchesReferenceListModel)
{
    const unsigned ways = GetParam();
    mem::Cache cache("p", {64u * ways * 4, ways, 64});
    ASSERT_EQ(cache.numSets(), 4u);

    // Reference: per-set LRU lists.
    std::list<std::uint64_t> ref[4];
    Rng rng(ways * 99ull);

    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t line = rng.below(64); // heavy conflicts
        const sim::Addr addr = line * 64;
        const unsigned set = static_cast<unsigned>(line % 4);
        auto &l = ref[set];

        const auto it = std::find(l.begin(), l.end(), line);
        const bool ref_hit = it != l.end();
        const bool hit = cache.access(addr);
        ASSERT_EQ(hit, ref_hit) << "access " << i << " line " << line;

        if (ref_hit) {
            l.erase(it);
            l.push_front(line);
        } else {
            if (l.size() == ways)
                l.pop_back();
            l.push_front(line);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheLruProperty,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Ledger/PMU agreement property (user-mode counters are exact)
// ---------------------------------------------------------------------

class LedgerAgreementSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LedgerAgreementSweep, UserCounterTracksLedgerForEveryEvent)
{
    const unsigned event_idx = GetParam();
    const auto event = static_cast<EventType>(event_idx);

    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(2)
                              .quantum(40'000)
                              .build());
    pec::PecSession s(b.kernel());
    s.addEvent(0, event, true, false);

    workloads::OltpConfig cfg;
    cfg.clients = 3;
    workloads::OltpServer oltp(b.machine(), b.kernel(), cfg, 5);
    oltp.spawn();
    b.run(1'500'000);

    for (unsigned t = 0; t < b.kernel().numThreads(); ++t) {
        auto &thread = b.kernel().thread(t);
        EXPECT_EQ(s.threadTotal(thread, 0),
                  thread.ctx.ledger().count(event, PrivMode::User))
            << "thread " << t << " event "
            << sim::eventName(event);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Events, LedgerAgreementSweep,
    ::testing::Range(0u, sim::numEventTypes - 1), // excl. CtxSwitches
    [](const auto &info) {
        std::string n(sim::eventName(
            static_cast<EventType>(info.param)));
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace limit

/**
 * @file
 * Randomized whole-machine stress ("chaos") tests: generated guest
 * programs with mixed ops, locks, and syscalls, run across seeds and
 * topologies, checked against global invariants rather than scripted
 * expectations.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "analysis/bundle.hh"
#include "fault/plan.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sync/mutex.hh"

namespace limit {
namespace {

using os::Kernel;
using sim::EventType;
using sim::Guest;
using sim::PrivMode;
using sim::Task;

/** One randomized actor: mixes every op class, balanced lock usage. */
Task<void>
chaosActor(Guest &g, std::vector<std::unique_ptr<sync::Mutex>> &locks,
           unsigned steps)
{
    for (unsigned s = 0; s < steps; ++s) {
        const std::uint64_t dice = g.rng().below(100);
        if (dice < 40) {
            co_await g.compute(1 + g.rng().below(800));
        } else if (dice < 60) {
            const sim::Addr a = 0x100000 + g.rng().below(1 << 16) * 8;
            if (g.rng().chance(0.5))
                co_await g.load(a);
            else
                co_await g.store(a);
        } else if (dice < 75) {
            sync::Mutex &mu = *locks[g.rng().below(locks.size())];
            const std::uint64_t w = co_await mu.lock(g);
            (void)w;
            co_await g.compute(1 + g.rng().below(300));
            co_await mu.unlock(g);
        } else if (dice < 85) {
            co_await g.syscall(os::sysYield);
        } else if (dice < 92) {
            co_await g.syscall(os::sysSleep,
                               {1 + g.rng().below(20'000), 0, 0, 0});
        } else if (dice < 97) {
            std::uint64_t word = 1; // never matches: immediate EAGAIN
            const std::uint64_t r = co_await g.syscall(
                os::sysFutexWait,
                {0x900, 0, reinterpret_cast<std::uint64_t>(&word), 0});
            EXPECT_EQ(r, 1u);
        } else {
            co_await g.syscall(os::sysNop);
        }
    }
}

struct ChaosOutcome
{
    sim::Tick end;
    std::uint64_t cycles;
    std::uint64_t instrs;
    std::uint64_t switches;

    bool
    operator==(const ChaosOutcome &o) const
    {
        return end == o.end && cycles == o.cycles &&
               instrs == o.instrs && switches == o.switches;
    }
};

ChaosOutcome
runChaos(std::uint64_t seed, unsigned cores, unsigned threads)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(cores)
                              .quantum(40'000)
                              .seed(seed)
                              .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, EventType::Instructions, true, false);

    std::vector<std::unique_ptr<sync::Mutex>> locks;
    for (int i = 0; i < 4; ++i)
        locks.push_back(std::make_unique<sync::Mutex>(0x8000 + i * 64));

    for (unsigned i = 0; i < threads; ++i) {
        b.kernel().spawn(
            "chaos" + std::to_string(i),
            [&locks](Guest &g) -> Task<void> {
                co_await chaosActor(g, locks, 150);
            });
    }
    const sim::Tick end = b.machine().run();

    // Invariant: the fast-read virtualized value equals the exact
    // ledger for every thread, no matter what just happened.
    for (unsigned t = 0; t < b.kernel().numThreads(); ++t) {
        auto &thread = b.kernel().thread(t);
        EXPECT_EQ(session.threadTotal(thread, 0),
                  thread.ctx.ledger().count(EventType::Instructions,
                                            PrivMode::User))
            << "seed " << seed << " thread " << t;
    }

    ChaosOutcome out;
    out.end = end;
    out.cycles = analysis::totalEvent(b.kernel(), EventType::Cycles);
    out.instrs =
        analysis::totalEvent(b.kernel(), EventType::Instructions);
    out.switches = b.kernel().totalContextSwitches();
    return out;
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ChaosSweep, CompletesWithSaneInvariants)
{
    const std::uint64_t seed = GetParam();
    const ChaosOutcome r = runChaos(seed, 3, 9);
    EXPECT_GT(r.end, 0u);
    // Every op costs at least as many cycles as instructions it
    // retires (user CPI >= 1; kernel IPC < 1).
    EXPECT_GE(r.cycles, r.instrs);
    EXPECT_GT(r.instrs, 9u * 150u); // everyone made progress
}

TEST_P(ChaosSweep, DeterministicForSameSeed)
{
    const std::uint64_t seed = GetParam();
    EXPECT_TRUE(runChaos(seed, 2, 6) == runChaos(seed, 2, 6));
}

TEST_P(ChaosSweep, DifferentSeedsDiverge)
{
    const std::uint64_t seed = GetParam();
    const ChaosOutcome a = runChaos(seed, 2, 6);
    const ChaosOutcome b = runChaos(seed + 1000, 2, 6);
    EXPECT_FALSE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           987654321ull),
                         [](const auto &info) {
                             return "s" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Faulted chaos: replay refusal
// ---------------------------------------------------------------------

/**
 * Flat-memory spin (a declared loop) with an optional fault plan.
 * Returns the replay count so refusal is directly observable.
 */
struct SpinRun
{
    std::uint64_t iters = 0;
    std::uint64_t opsReplayed = 0;
};

SpinRun
runFaultedSpin(const std::string &faults)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .flatMemory()
                              .seed(9)
                              .build());
    std::optional<fault::PlanController> ctl;
    if (!faults.empty()) {
        fault::Plan plan;
        std::string err;
        EXPECT_TRUE(fault::Plan::parse(faults, plan, err)) << err;
        ctl.emplace(b.machine(), std::move(plan));
        b.machine().setFaults(&*ctl);
    }
    SpinRun out;
    b.kernel().spawn("spin", [&](Guest &g) -> Task<void> {
        g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 2}});
        while (!g.shouldStop()) {
            co_await g.load(0x8000 + (out.iters % 256) * 64);
            co_await g.compute(2);
            ++out.iters;
        }
        co_return;
    });
    b.run(300'000);
    out.opsReplayed = b.machine().superblockStats().opsReplayed;
    b.machine().setFaults(nullptr);
    return out;
}

TEST(ChaosFaults, ArmedNonReplayPlansForceReplayRefusal)
{
    if (!sim::batchedExecutionDefault())
        GTEST_SKIP() << "batched execution force-disabled";
    // Clean run: the spin loop retires through superblock replay.
    const SpinRun clean = runFaultedSpin("");
    EXPECT_GT(clean.opsReplayed, 0u);
    // Any armed plan makes the machine refuse replay outright — the
    // faults keyed on per-op seams would otherwise be skipped.
    const SpinRun refused =
        runFaultedSpin("stall-syscall:nr=0:ticks=100:nth=50");
    EXPECT_EQ(refused.opsReplayed, 0u);
    EXPECT_EQ(refused.iters, clean.iters);
}

} // namespace
} // namespace limit

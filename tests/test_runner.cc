/**
 * @file
 * Tests for the parallel experiment runner: parallel results must be
 * bit-identical to serial ones and arrive in submission order, and a
 * throwing job must not wedge the pool. Also pins the bench CLI
 * parser, the mapGuarded shim, and a ledger/PMU count regression for
 * the simulator hot path (any change to event application semantics
 * fails here, not in a bench table months later).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "analysis/campaign.hh"
#include "analysis/runner.hh"
#include "os/sysno.hh"
#include "sim/machine.hh"
#include "sim/pmu.hh"

namespace limit {
namespace {

using analysis::BenchArgs;
using analysis::BundleOptions;
using analysis::ParallelRunner;
using analysis::SimBundle;
using sim::EventType;
using sim::Guest;
using sim::PrivMode;
using sim::Task;

/** Event counts from one small simulation, keyed by job index. */
struct Counts
{
    std::uint64_t userInstr;
    std::uint64_t kernelInstr;
    std::uint64_t cycles;
    std::uint64_t l1dMiss;

    bool
    operator==(const Counts &o) const
    {
        return userInstr == o.userInstr && kernelInstr == o.kernelInstr &&
               cycles == o.cycles && l1dMiss == o.l1dMiss;
    }
};

Counts
simulate(std::size_t job)
{
    SimBundle b(BundleOptions::builder()
                    .cores(2)
                    .seed(1 + job)
                    .build());
    // The guest work depends on the job index, so distinct jobs
    // produce distinct counts and index mix-ups are observable.
    const int iters = 40 + 3 * static_cast<int>(job % 5);
    for (int t = 0; t < 3; ++t) {
        b.kernel().spawn(
            "t" + std::to_string(t), [&, iters](Guest &g) -> Task<void> {
                for (int i = 0; i < iters; ++i) {
                    co_await g.compute(200 + 13 * ((i + job) % 7));
                    co_await g.load(0x10000 + 64 * i);
                    if (i % 9 == 0)
                        co_await g.syscall(os::sysNop);
                }
                co_return;
            });
    }
    b.machine().run();
    return {analysis::totalEvent(b.kernel(), EventType::Instructions,
                                 PrivMode::User),
            analysis::totalEvent(b.kernel(), EventType::Instructions,
                                 PrivMode::Kernel),
            analysis::totalEvent(b.kernel(), EventType::Cycles),
            analysis::totalEvent(b.kernel(), EventType::L1DMiss)};
}

TEST(ParallelRunnerTest, ParallelMatchesSerialBitForBit)
{
    ParallelRunner serial(1);
    ParallelRunner parallel(4);
    const auto a = serial.map(8, simulate);
    const auto b = parallel.map(8, simulate);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "job " << i;
    // Different jobs see different seeds, so they must differ.
    EXPECT_FALSE(a[0] == a[1]);
}

TEST(ParallelRunnerTest, ResultsArriveInSubmissionOrder)
{
    // Early jobs sleep longest, so completion order is roughly the
    // reverse of submission order; the slot vector must undo that.
    ParallelRunner pool(4);
    const auto out = pool.map(12, [](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((12 - i) * 2));
        return i;
    });
    ASSERT_EQ(out.size(), 12u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ParallelRunnerTest, SingleFailureRethrowsTheOriginalException)
{
    ParallelRunner pool(4);
    std::atomic<unsigned> ran{0};
    try {
        pool.map(8, [&](std::size_t i) -> int {
            ran.fetch_add(1);
            if (i == 2)
                throw std::invalid_argument("job two");
            return static_cast<int>(i);
        });
        FAIL() << "map should have rethrown";
    } catch (const std::invalid_argument &e) {
        // One failure: the original exception type and message
        // survive untouched.
        EXPECT_STREQ(e.what(), "job two");
    }
    // Workers drained the whole queue despite the failure...
    EXPECT_EQ(ran.load(), 8u);
    EXPECT_EQ(pool.failedJobs(), 1u);
    // ...and the pool is still usable afterwards.
    const auto out = pool.map(4, [](std::size_t i) { return 10 * i; });
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[3], 30u);
    EXPECT_EQ(pool.failedJobs(), 0u);
}

TEST(ParallelRunnerTest, MultipleFailuresAggregateIndexAndWhat)
{
    ParallelRunner pool(4);
    std::atomic<unsigned> ran{0};
    try {
        pool.map(8, [&](std::size_t i) -> int {
            ran.fetch_add(1);
            if (i == 2)
                throw std::runtime_error("job two");
            if (i == 5)
                throw std::runtime_error("job five");
            return static_cast<int>(i);
        });
        FAIL() << "map should have rethrown";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 of 8 jobs failed"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("job 2: job two"), std::string::npos) << msg;
        EXPECT_NE(msg.find("job 5: job five"), std::string::npos) << msg;
    }
    EXPECT_EQ(ran.load(), 8u);
    EXPECT_EQ(pool.failedJobs(), 2u);
    const auto out = pool.map(4, [](std::size_t i) { return 10 * i; });
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[3], 30u);
}

TEST(ParallelRunnerTest, SerialPathPropagatesFirstException)
{
    ParallelRunner pool(1);
    EXPECT_THROW(pool.map(4,
                          [](std::size_t i) -> int {
                              if (i >= 1)
                                  throw std::runtime_error("boom");
                              return 0;
                          }),
                 std::runtime_error);
}

TEST(ParallelRunnerTest, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(ParallelRunner(0).workers(), 1u);
    EXPECT_EQ(ParallelRunner(3).workers(), 3u);
}

TEST(BenchArgsTest, DefaultsAndOverrides)
{
    {
        char prog[] = "bench";
        char *argv[] = {prog};
        const BenchArgs a =
            analysis::parseBenchArgs(1, argv, {.seeds = 7, .jobs = 2});
        EXPECT_EQ(a.seeds, 7u);
        EXPECT_EQ(a.jobs, 2u);
    }
    {
        char prog[] = "bench";
        char f1[] = "--seeds", v1[] = "5";
        char f2[] = "--jobs", v2[] = "0";
        char *argv[] = {prog, f1, v1, f2, v2};
        const BenchArgs a =
            analysis::parseBenchArgs(5, argv, {.seeds = 1, .jobs = 1});
        EXPECT_EQ(a.seeds, 5u);
        EXPECT_EQ(a.jobs, 0u);
    }
}

// ---------------------------------------------------------------------
// mapGuarded: the ParallelRunner shim limitbench calls
// ---------------------------------------------------------------------

TEST(CampaignTest, DefaultOptionsLeaveTheWorkingDirectoryUntouched)
{
    // limitbench runs its fan-out through this shim at default
    // options: results arrive in order and nothing lands in the
    // working directory, checked from a fresh, empty one.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "limitpp_cwd";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);
    const std::vector<std::size_t> out = analysis::mapGuarded(
        analysis::CampaignOptions{}, 3,
        [](std::size_t i) { return 2 * i; });
    fs::current_path(cwd);

    EXPECT_EQ(out, (std::vector<std::size_t>{0, 2, 4}));
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

/**
 * Regression pin for the simulator hot path: exact ledger and
 * mode-filtered PMU counts for a fixed scenario. These numbers were
 * recorded from the simulator at the time the fast paths (inline
 * event apply, poll gating, no-copy op dispatch) were introduced; any
 * semantic drift in EventLedger::apply, Pmu::applyFast or the run
 * loop shows up as a mismatch here.
 */
TEST(HotPathRegressionTest, LedgerAndFilteredPmuCountsPinned)
{
    SimBundle b(BundleOptions::builder()
                    .cores(1)
                    .pmuWidth(16) // forces wrap handling to run
                    .build());

    auto &pmu = b.machine().cpu(0).pmu();
    sim::CounterConfig user_instr;
    user_instr.event = EventType::Instructions;
    user_instr.countUser = true;
    user_instr.countKernel = false;
    user_instr.enabled = true;
    pmu.configure(0, user_instr);
    sim::CounterConfig kernel_cyc;
    kernel_cyc.event = EventType::Cycles;
    kernel_cyc.countUser = false;
    kernel_cyc.countKernel = true;
    kernel_cyc.enabled = true;
    pmu.configure(1, kernel_cyc);

    b.kernel().spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 200; ++i) {
            co_await g.compute(97);
            co_await g.load(0x4000 + 64 * i);
            co_await g.store(0x8000 + 128 * i);
            if (i % 50 == 0)
                co_await g.syscall(os::sysNop);
        }
        co_return;
    });
    b.machine().run();

    const auto &ledger = b.kernel().thread(0).ctx.ledger();
    const std::uint64_t user_i =
        ledger.count(EventType::Instructions, PrivMode::User);
    const std::uint64_t kern_i =
        ledger.count(EventType::Instructions, PrivMode::Kernel);
    const std::uint64_t user_c =
        ledger.count(EventType::Cycles, PrivMode::User);
    const std::uint64_t kern_c =
        ledger.count(EventType::Cycles, PrivMode::Kernel);
    const std::uint64_t l1d = ledger.total(EventType::L1DMiss);

    EXPECT_EQ(user_i, 19'804u);
    EXPECT_EQ(kern_i, 14'112u);
    EXPECT_EQ(user_c, 109'524u);
    EXPECT_EQ(kern_c, 17'640u);
    EXPECT_EQ(l1d, 400u);

    // The PMU's user-instruction filter must agree with the exact
    // ledger. The kernel-cycle counter reads slightly below the
    // ledger (cycles spent before the thread is switched in are not
    // attributed to it by the core's PMU) — pinned as its own value,
    // which also exercises the 16-bit mask path.
    EXPECT_EQ(pmu.read(0), user_i);
    EXPECT_EQ(pmu.read(1), 17'420u);
}

} // namespace
} // namespace limit

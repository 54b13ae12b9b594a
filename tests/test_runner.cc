/**
 * @file
 * Tests for the parallel experiment runner: parallel results must be
 * bit-identical to serial ones and arrive in submission order, and a
 * throwing job must not wedge the pool. Also pins the bench CLI
 * parser and a ledger/PMU count regression for the simulator hot
 * path (any change to event application semantics fails here, not in
 * a bench table months later).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

TEST(BenchArgsTest, RobustnessFlagsParse)
{
    char prog[] = "bench";
    char f1[] = "--job-timeout", v1[] = "2.5";
    char f2[] = "--journal", v2[] = "/tmp/limitpp_args.jsonl";
    char f3[] = "--resume";
    char f4[] = "--sentinel";
    char f5[] = "--sentinel-every", v5[] = "4";
    char *argv[] = {prog, f1, v1, f2, v2, f3, f4, f5, v5};
    const BenchArgs a = analysis::parseBenchArgs(9, argv, {});
    EXPECT_DOUBLE_EQ(a.jobTimeoutSec, 2.5);
    EXPECT_EQ(a.journal, "/tmp/limitpp_args.jsonl");
    EXPECT_TRUE(a.resume);
    EXPECT_TRUE(a.sentinel);
    EXPECT_EQ(a.sentinelEvery, 4u);
    // parseBenchArgs propagates --job-timeout into the process-wide
    // watchdog default; undo so other tests run unwatched.
    EXPECT_DOUBLE_EQ(sim::jobWatchdogDefault(), 2.5);
    sim::setJobWatchdogDefault(0);
}

// ---------------------------------------------------------------------
// Campaign: durable, self-healing fan-out
// ---------------------------------------------------------------------

TEST(CampaignTest, HexfloatCodecRoundTripsBitExactly)
{
    const double values[] = {0.0,     -0.0,   1.0,    0.1,
                             1.0 / 3, 5e-324, 1e308,  -123.456,
                             1.5e-300, 170760.0};
    for (const double v : values) {
        double back = 0;
        ASSERT_TRUE(analysis::decodeDouble(analysis::encodeDouble(v),
                                           back))
            << v;
        EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0) << v;
    }
    double out = 0;
    EXPECT_FALSE(analysis::decodeDouble("", out));
    EXPECT_FALSE(analysis::decodeDouble("0x1p+1 trailing", out));
}

namespace campaign_jobs {

/** Deterministic journalable job: hexfloat of a seed-derived value. */
std::string
job(std::size_t i)
{
    return analysis::encodeDouble(1.0 / (3.0 + static_cast<double>(i)));
}

} // namespace campaign_jobs

TEST(CampaignTest, JournalRoundTripAcrossWorkerCounts)
{
    const std::string path =
        ::testing::TempDir() + "limitpp_journal_roundtrip.jsonl";
    std::remove(path.c_str());

    analysis::CampaignOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    opts.configFingerprint = analysis::configHash("journal-roundtrip");
    const analysis::CampaignResult first =
        analysis::Campaign(opts).run(6, campaign_jobs::job);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.resumedJobs, 0u);

    // The journal self-describes.
    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("limitpp-journal-v1"), std::string::npos);
    EXPECT_NE(header.find(opts.configFingerprint), std::string::npos);

    // Resume with a different worker count: every job comes from the
    // journal, values bit-identical, nothing re-runs.
    opts.jobs = 4;
    opts.resume = true;
    std::atomic<unsigned> fresh{0};
    const analysis::CampaignResult second =
        analysis::Campaign(opts).run(6, [&](std::size_t i) {
            fresh.fetch_add(1);
            return campaign_jobs::job(i);
        });
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.resumedJobs, 6u);
    EXPECT_EQ(fresh.load(), 0u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(second.jobs[i].fromJournal) << i;
        EXPECT_EQ(second.jobs[i].value, first.jobs[i].value) << i;
    }
    std::remove(path.c_str());
}

TEST(CampaignTest, StatusFileHeartbeatReachesFinishedState)
{
    const std::string path =
        ::testing::TempDir() + "limitpp_status_campaign.json";
    std::remove(path.c_str());

    analysis::CampaignOptions opts;
    opts.jobs = 2;
    opts.statusPath = path;
    const analysis::CampaignResult r =
        analysis::Campaign(opts).run(5, campaign_jobs::job);
    ASSERT_TRUE(r.ok());

    // The reporter's final flush runs before Campaign::run returns,
    // so the heartbeat on disk is the completed snapshot — and only
    // the renamed path exists, never the temp (atomic-replace).
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"schema\":\"limitpp-status-v1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"total\":5"), std::string::npos);
    EXPECT_NE(line.find("\"done\":5"), std::string::npos);
    EXPECT_NE(line.find("\"in_flight\":0"), std::string::npos);
    EXPECT_NE(line.find("\"failed\":0"), std::string::npos);
    EXPECT_NE(line.find("\"finished\":true"), std::string::npos);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(CampaignTest, DefaultOptionsLeaveTheWorkingDirectoryUntouched)
{
    // The status heartbeat is off by default. With an empty path its
    // temp file would be a bare ".tmp" in the working directory, so
    // run the fan-out in a fresh directory and check it stays empty.
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
    EXPECT_FALSE(fs::exists(dir / ".tmp"));
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(CampaignTest, StatusReporterCountsRetriesAndQuarantines)
{
    const std::string path =
        ::testing::TempDir() + "limitpp_status_unit.json";
    std::remove(path.c_str());
    {
        analysis::StatusReporter s(path, 3);
        s.started();
        s.finished(guard::ExecMode::Batched, 2, false, true);
        s.started();
        s.finished(guard::ExecMode::PerOp, 1, true, false);
        s.resumed();
    } // destructor = final flush

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"done\":2"), std::string::npos);
    EXPECT_NE(line.find("\"resumed\":1"), std::string::npos);
    EXPECT_NE(line.find("\"failed\":1"), std::string::npos);
    EXPECT_NE(line.find("\"retried\":1"), std::string::npos);
    EXPECT_NE(line.find("\"quarantined\":1"), std::string::npos);
    EXPECT_NE(line.find("\"batched\":1"), std::string::npos);
    EXPECT_NE(line.find("\"finished\":true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CampaignTest, PartialJournalResumeRunsOnlyTheMissingJobs)
{
    const std::string path =
        ::testing::TempDir() + "limitpp_journal_partial.jsonl";
    std::remove(path.c_str());

    analysis::CampaignOptions opts;
    opts.jobs = 1;
    opts.journalPath = path;
    opts.configFingerprint = analysis::configHash("journal-partial");
    const analysis::CampaignResult full =
        analysis::Campaign(opts).run(6, campaign_jobs::job);
    ASSERT_TRUE(full.ok());

    // Simulate a SIGKILL after three completed jobs: keep the header
    // plus the first three records, tear the rest off — including a
    // torn half-record, which resume must refuse to trust.
    {
        std::ifstream in(path);
        std::string line, kept;
        for (int i = 0; i < 4 && std::getline(in, line); ++i)
            kept += line + "\n";
        in.close();
        kept += "{\"rec\":\"job\",\"config\":\"torn"; // no terminator
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << kept;
    }

    opts.resume = true;
    std::atomic<unsigned> fresh{0};
    const analysis::CampaignResult resumed =
        analysis::Campaign(opts).run(6, [&](std::size_t i) {
            fresh.fetch_add(1);
            return campaign_jobs::job(i);
        });
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumedJobs, 3u);
    EXPECT_EQ(fresh.load(), 3u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(resumed.jobs[i].fromJournal, i < 3) << i;
        EXPECT_EQ(resumed.jobs[i].value, full.jobs[i].value) << i;
    }
    std::remove(path.c_str());
}

TEST(CampaignTest, MismatchedConfigFingerprintIgnoresTheJournal)
{
    const std::string path =
        ::testing::TempDir() + "limitpp_journal_config.jsonl";
    std::remove(path.c_str());

    analysis::CampaignOptions opts;
    opts.journalPath = path;
    opts.configFingerprint = analysis::configHash("sweep-A");
    ASSERT_TRUE(analysis::Campaign(opts).run(3, campaign_jobs::job).ok());

    // A journal from a different sweep must not poison this one.
    opts.configFingerprint = analysis::configHash("sweep-B");
    opts.resume = true;
    std::atomic<unsigned> fresh{0};
    const analysis::CampaignResult r =
        analysis::Campaign(opts).run(3, [&](std::size_t i) {
            fresh.fetch_add(1);
            return campaign_jobs::job(i);
        });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.resumedJobs, 0u);
    EXPECT_EQ(fresh.load(), 3u);
    std::remove(path.c_str());
}

TEST(CampaignTest, WatchdogTimesOutRunawayJobsWithoutWedging)
{
    analysis::CampaignOptions opts;
    opts.jobTimeoutSec = 0.05;
    const analysis::CampaignResult r = analysis::Campaign(opts).run(
        2, [](std::size_t i) -> std::string {
            if (i == 0) {
                // A guest that never finishes and a run with no stop
                // horizon: without the watchdog this wedges forever.
                SimBundle b(
                    BundleOptions::builder().cores(1).build());
                b.kernel().spawn("wedge", [](Guest &g) -> Task<void> {
                    for (;;)
                        co_await g.compute(50);
                });
                b.machine().run();
            }
            return "done";
        });
    // The runaway job timed out on both rungs and was marked failed...
    EXPECT_EQ(r.failedJobs, 1u);
    EXPECT_TRUE(r.jobs[0].failed);
    EXPECT_EQ(r.jobs[0].attempts, 2u);
    EXPECT_NE(r.jobs[0].error.find("timed out"), std::string::npos)
        << r.jobs[0].error;
    // ...without taking the rest of the fan-out down with it.
    EXPECT_FALSE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].value, "done");
    EXPECT_FALSE(r.interrupted);
}

TEST(CampaignTest, SigintDrainsInFlightWorkAndSkipsTheRest)
{
    analysis::detail::resetSigintDrain();
    analysis::CampaignOptions opts; // jobs = 1: deterministic skip set
    const analysis::CampaignResult r = analysis::Campaign(opts).run(
        5, [](std::size_t i) -> std::string {
            if (i == 1)
                std::raise(SIGINT); // first ^C: drain, don't kill
            return "v" + std::to_string(i);
        });
    EXPECT_TRUE(r.interrupted);
    // The in-flight job still finished and kept its value...
    EXPECT_EQ(r.jobs[0].value, "v0");
    EXPECT_EQ(r.jobs[1].value, "v1");
    // ...and every unstarted job was skipped, not run.
    EXPECT_EQ(r.skippedJobs, 3u);
    for (std::size_t i = 2; i < 5; ++i) {
        EXPECT_TRUE(r.jobs[i].skipped) << i;
        EXPECT_NE(r.jobs[i].error.find("SIGINT"), std::string::npos);
    }
    EXPECT_FALSE(r.ok());
    analysis::detail::resetSigintDrain();
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

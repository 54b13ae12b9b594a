/**
 * @file
 * The benchmark's own checks: the digest check catches a perturbed
 * job result, and the layer wrappers leave every experiment's
 * simulated outcome unchanged. Jobs are shortened to a few million
 * ticks.
 */

#include <gtest/gtest.h>

#include "jobs.hh"
#include "measure.hh"

namespace limitbench {
namespace {

constexpr sim::Tick shortTicks = 3'000'000;

/** The first seed-0 job of an experiment's cell, shortened. */
Job
shortJob(Experiment e, unsigned cell)
{
    for (const Workload w : allWorkloads) {
        for (Job job : jobList(w, 0)) {
            if (job.experiment == e && job.cell == cell) {
                job.ticks = shortTicks;
                return job;
            }
        }
    }
    ADD_FAILURE() << "no such cell " << cell;
    return {};
}

TEST(DigestCheck, PerturbedResultIsCaught)
{
    const JobResult base = runJob(shortJob(Experiment::E5, 0), false);
    ASSERT_TRUE(base.error.empty()) << base.error;
    const std::vector<std::uint64_t> expected = {base.outcome.digest()};
    EXPECT_EQ(countFailures({base}, expected), 0u);

    // Every field of the outcome feeds the digest.
    std::uint64_t Outcome::*const fields[] = {
        &Outcome::ledgerHash,        &Outcome::memHash,
        &Outcome::workItems,
        &Outcome::syncAcquisitions,  &Outcome::syncContended,
        &Outcome::syncWaitCycles,    &Outcome::syncHoldCycles,
        &Outcome::pecRegionEntries,  &Outcome::pecReadRestarts,
        &Outcome::pecOverflowFixups, &Outcome::pecDoubleCheckRetries};
    for (auto field : fields) {
        JobResult perturbed = base;
        perturbed.outcome.*field += 1;
        EXPECT_EQ(countFailures({perturbed}, expected), 1u);
    }

    JobResult threw = base;
    threw.error = "boom";
    EXPECT_EQ(countFailures({threw}, expected), 1u);
    // A job with no reference digest is a failure, not a pass.
    EXPECT_EQ(countFailures({base, base}, expected), 1u);
}

TEST(DigestCheck, SeedChangesTheDigest)
{
    Job job = shortJob(Experiment::E5, 0);
    const JobResult a = runJob(job, false);
    job.seed += 1;
    const JobResult b = runJob(job, false);
    ASSERT_TRUE(a.error.empty() && b.error.empty());
    EXPECT_NE(a.outcome.digest(), b.outcome.digest());
}

TEST(DigestCheck, ReferenceFileParses)
{
    References refs;
    std::string error;
    ASSERT_TRUE(parseReferences("# comment\n"
                                "spec-kernels 3 00000000000000ff "
                                "0123456789abcdef\n",
                                refs, error))
        << error;
    const std::vector<std::uint64_t> want = {0xff, 0x0123456789abcdefull};
    EXPECT_EQ(refs.at({"spec-kernels", 3}), want);

    EXPECT_FALSE(parseReferences("no-such-workload 1 00\n", refs, error));
    EXPECT_FALSE(parseReferences("spec-kernels 1 xyz\n", refs, error));
    EXPECT_FALSE(parseReferences("spec-kernels 1 12ab\n", refs, error));
}

/** One short job per experiment, picked to exercise each wrapper. */
struct WrapperCase
{
    Experiment experiment;
    unsigned cell;
    const char *name;
};

class WrapperEquivalence : public testing::TestWithParam<WrapperCase>
{
};

TEST_P(WrapperEquivalence, TracedOutcomeEqualsUntraced)
{
    const Job job = shortJob(GetParam().experiment, GetParam().cell);
    const JobResult plain = runJob(job, false);
    const JobResult traced = runJob(job, true);
    ASSERT_TRUE(plain.error.empty()) << plain.error;
    ASSERT_TRUE(traced.error.empty()) << traced.error;
    EXPECT_EQ(plain.outcome.digest(), traced.outcome.digest());
    // Scheduling and superblock replay take the same path too.
    EXPECT_EQ(plain.layers.guestOps, traced.layers.guestOps);
    EXPECT_EQ(plain.layers.rounds, traced.layers.rounds);
    EXPECT_EQ(plain.layers.sbReplayed, traced.layers.sbReplayed);
    EXPECT_EQ(plain.layers.sbRecorded, traced.layers.sbRecorded);

    // The wrappers saw the traffic, and the traced split fits inside
    // the run span it was measured in.
    const LayerStats &l = traced.layers;
    EXPECT_GT(l.mem.accessCalls, 0u);
    EXPECT_GT(l.os.polls, 0u);
    EXPECT_LE(l.mem.ticks + l.os.totalTicks(), l.runTicks);
    EXPECT_EQ(traced.spans.size(), 3u);
    // Untraced runs leave the wrapper counts empty.
    EXPECT_EQ(plain.layers.mem.accessCalls, 0u);
    EXPECT_TRUE(plain.spans.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllExperiments, WrapperEquivalence,
    testing::Values(
        // web: the kernel-heavy case study
        WrapperCase{Experiment::E5, 1, "e5_web"},
        // stream: superblock replay through fastPeekView and credits
        WrapperCase{Experiment::E11, 0, "e11_stream"},
        // 16 perf-syscall reads per op: the counter-source wrapper
        WrapperCase{Experiment::E3, 15, "e3_perf_syscall"}),
    [](const testing::TestParamInfo<WrapperCase> &info) {
        return std::string(info.param.name);
    });

TEST(WrapperEquivalence, WrappersSeeTheirLayersWork)
{
    const JobResult stream =
        runJob(shortJob(Experiment::E11, 0), true);
    EXPECT_GT(stream.layers.mem.replayCredited, 0u);
    EXPECT_GT(stream.layers.sbReplayed, 0u);
    EXPECT_EQ(stream.layers.os.syscalls, 0u);

    const JobResult syscalls =
        runJob(shortJob(Experiment::E3, 15), true);
    EXPECT_GT(syscalls.layers.baselineReads, 0u);
    EXPECT_EQ(syscalls.layers.pecReads, 0u);
    EXPECT_GT(syscalls.layers.os.syscalls, 0u);

    const JobResult pec = runJob(shortJob(Experiment::E3, 13), true);
    EXPECT_GT(pec.layers.pecReads, 0u);
    EXPECT_EQ(pec.layers.baselineReads, 0u);
}

} // namespace
} // namespace limitbench

/**
 * @file
 * Run-fingerprint tests: guard::foldRun digests a finished machine,
 * the digest agrees whether a job replays its declared loop, runs the
 * same loop undeclared, or runs on the per-op reference scheduler, and
 * it separates runs of different lengths. limitbench's `correct`
 * check digests every job through foldRun.
 */

#include <gtest/gtest.h>

#include "analysis/bundle.hh"
#include "guard/fingerprint.hh"

namespace limit {
namespace {

using analysis::BundleOptions;
using analysis::SimBundle;
using guard::Fingerprint;
using sim::Guest;
using sim::Task;

/**
 * One flat-memory spin job run to `horizon`, folded into a
 * fingerprint. Every load takes the memory fast path, so a batched run
 * of the declared loop body retires it through replay; an undeclared
 * one runs the same ops batched without replay. Under
 * LIMITPP_FORCE_NO_BATCH every run is per-op.
 */
Fingerprint
spinFingerprint(bool batched, bool declared, sim::Tick horizon)
{
    SimBundle b(BundleOptions::builder()
                    .cores(1)
                    .flatMemory()
                    .quantum(50'000)
                    .seed(1)
                    .batched(batched)
                    .build());
    std::uint64_t iters = 0;
    b.kernel().spawn("spin", [&](Guest &g) -> Task<void> {
        if (declared)
            g.declareLoop({{sim::OpKind::Load}, {sim::OpKind::Compute, 2}});
        while (!g.shouldStop()) {
            co_await g.load(0x8000 + (iters % 256) * 64);
            co_await g.compute(2);
            ++iters;
        }
        co_return;
    });
    const sim::Tick end = b.run(horizon);
    Fingerprint fp;
    guard::foldRun(fp, b.kernel(), b.machine(), end);
    return fp;
}

TEST(FingerprintTest, AllThreeModesAgreeOnACleanRun)
{
    // The three ways a loop can run: replayed, batched op by op, and
    // on the per-op reference scheduler.
    const Fingerprint replayed = spinFingerprint(true, true, 100'000);
    const Fingerprint undeclared = spinFingerprint(true, false, 100'000);
    const Fingerprint perop = spinFingerprint(false, true, 100'000);
    EXPECT_TRUE(replayed == undeclared);
    EXPECT_TRUE(replayed == perop);
    EXPECT_EQ(replayed.runs, 1u);
    EXPECT_GT(replayed.instructions, 0u);
    EXPECT_GT(replayed.endTick, 0u);
}

TEST(FingerprintTest, DifferentWindowsProduceDifferentFingerprints)
{
    const Fingerprint wide = spinFingerprint(true, true, 100'000);
    const Fingerprint narrow = spinFingerprint(true, true, 6'250);
    EXPECT_FALSE(wide == narrow);
    EXPECT_GT(wide.instructions, narrow.instructions);
}

} // namespace
} // namespace limit

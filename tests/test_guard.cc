/**
 * @file
 * Run-fingerprint tests: guard::foldRun digests a finished machine,
 * the digest agrees across the three execution modes on the same job,
 * and it separates runs of different lengths. limitbench's `correct`
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
 * fingerprint. Every load takes the memory fast path, so with
 * superblocks on the declared loop body retires through replay. The
 * mode comes from the bundle options alone; --no-batch,
 * --no-superblock and the LIMITPP_FORCE_NO_* variables can only
 * narrow it further.
 */
Fingerprint
spinFingerprint(bool batched, bool superblocks, sim::Tick horizon)
{
    SimBundle b(BundleOptions::builder()
                    .cores(1)
                    .flatMemory()
                    .quantum(50'000)
                    .seed(1)
                    .batched(batched)
                    .superblocks(superblocks)
                    .build());
    std::uint64_t iters = 0;
    b.kernel().spawn("spin", [&](Guest &g) -> Task<void> {
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
    const Fingerprint sb = spinFingerprint(true, true, 100'000);
    const Fingerprint ba = spinFingerprint(true, false, 100'000);
    const Fingerprint po = spinFingerprint(false, false, 100'000);
    EXPECT_TRUE(sb == ba);
    EXPECT_TRUE(sb == po);
    EXPECT_EQ(sb.runs, 1u);
    EXPECT_GT(sb.instructions, 0u);
    EXPECT_GT(sb.endTick, 0u);
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

/**
 * @file
 * Host-work pins: the exact work the simulator does for a fixed
 * workload, seed and run length.
 *
 * The golden tables and the mode-equivalence tests pin every simulated
 * byte. A change that keeps every byte but makes the simulator do more
 * host work per guest op — a memory fast path that stops hitting, a
 * loop that no longer replays, a poll hint parked too close — shows up
 * only here. sim::WorkStats and sim::SuperblockStats depend only on the
 * seed, the workload and the execution mode, so each scenario compares
 * them exactly with a pinned line; a deliberate change re-pins by
 * pasting the line the failure prints.
 *
 * The scenarios are E11's SPEC-like kernels and applications on E11's
 * machine, plus a lone compute thread under both schedulers. A
 * batched scenario skips when LIMITPP_FORCE_NO_BATCH runs it per-op.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <variant>

#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "sim/machine.hh"
#include "workloads/browser.hh"
#include "workloads/kernels.hh"
#include "workloads/oltp.hh"
#include "workloads/webserver.hh"

namespace limit {
namespace {

using sim::Guest;
using sim::Task;
using workloads::KernelKind;

/**
 * The pinned counts on one line: WorkStats (fast = hits/tries), then
 * SuperblockStats (refused = faults/pmi/horizon/budget/overflow/
 * mem_view).
 */
std::string
describe(const sim::Machine &m)
{
    const sim::WorkStats &w = m.work();
    const sim::SuperblockStats &sb = m.superblockStats();
    std::ostringstream os;
    os << "rounds=" << w.rounds << " ops=" << w.guestOps
       << " polls=" << w.polls << " access=" << w.accessCalls
       << " fast=" << w.fastHits << "/" << w.fastTries
       << " | sb entries=" << sb.entries << " full=" << sb.fullCommits
       << " partial=" << sb.partialFlushes
       << " replayed=" << sb.opsReplayed
       << " bridged=" << sb.stallBridges << " refused="
       << sb.refusedFaults << "/" << sb.refusedPmi << "/"
       << sb.refusedHorizon << "/" << sb.refusedBudget << "/"
       << sb.refusedOverflow << "/" << sb.refusedMemView;
    return os.str();
}

/** E11's machine and workload seed, for a few million ticks. */
constexpr std::uint64_t workloadSeed = 777;
constexpr sim::Tick runTicks = 4'000'000;

analysis::BundleOptions
e11Machine()
{
    return analysis::BundleOptions::builder()
        .cores(4)
        .quantum(1'000'000)
        .seed(1)
        .build();
}

template <KernelKind K>
std::string
kernel()
{
    analysis::SimBundle b(e11Machine());
    workloads::ComputeKernel k(b.kernel(), K, 16 << 20, workloadSeed);
    k.spawn();
    b.run(runTicks);
    return describe(b.machine());
}

/** Spawn E11's configuration of application `App`, then run it. */
template <typename App, typename Config>
std::string
app(Config cfg)
{
    analysis::SimBundle b(e11Machine());
    App a(b.machine(), b.kernel(), cfg, workloadSeed);
    a.spawn();
    b.run(runTicks);
    return describe(b.machine());
}

std::string
oltp()
{
    workloads::OltpConfig cfg;
    cfg.clients = 6;
    cfg.rowsPerTable = 1 << 18;
    return app<workloads::OltpServer>(cfg);
}

std::string
web()
{
    workloads::WebConfig cfg;
    cfg.workers = 6;
    return app<workloads::WebServer>(cfg);
}

std::string
browser()
{
    return app<workloads::BrowserLoop>(workloads::BrowserConfig{});
}

/** A lone thread of 5,000 compute(10) ops, run to completion. */
std::string
soloCompute(bool batched)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .seed(3)
                              .batched(batched)
                              .build());
    b.kernel().spawn("solo", [](Guest &g) -> Task<void> {
        for (unsigned s = 0; s < 5'000; ++s)
            co_await g.compute(10);
    });
    b.machine().run();
    return describe(b.machine());
}

struct Pin
{
    const char *name;
    std::string (*run)();
    /** Runs batched, the default mode. */
    bool batched;
    const char *work;
};

void
PrintTo(const Pin &pin, std::ostream *os)
{
    *os << pin.name;
}

const Pin pins[] = {
    {"stream", kernel<KernelKind::Stream>, true,
     "rounds=72 ops=291073 polls=2 access=12319 fast=171/186 | sb "
     "entries=443 full=442 partial=1 replayed=278489 bridged=12304 "
     "refused=0/0/47/46/0/0"},
    {"ptrchase", kernel<KernelKind::PtrChase>, true,
     "rounds=9 ops=28161 polls=2 access=14080 fast=0/7 | sb entries=17 "
     "full=16 partial=1 replayed=14073 bridged=14073 "
     "refused=0/0/4/3/0/0"},
    {"matmul", kernel<KernelKind::MatMul>, true,
     "rounds=16 ops=62529 polls=2 access=31264 fast=0/10 | sb "
     "entries=104 full=103 partial=1 replayed=31254 bridged=31254 "
     "refused=0/0/10/0/0/0"},
    {"sortlike", kernel<KernelKind::SortLike>, true,
     "rounds=8 ops=26593 polls=2 access=13296 fast=0/7 | sb entries=23 "
     "full=23 partial=0 replayed=13289 bridged=13289 "
     "refused=0/0/4/3/0/0"},
    {"oltp", oltp, true,
     "rounds=8389 ops=18163 polls=563 access=10030 fast=186/7064 | sb "
     "entries=0 full=0 partial=0 replayed=0 bridged=0 "
     "refused=0/0/0/0/0/0"},
    {"web", web, true,
     "rounds=2584 ops=3355 polls=498 access=1944 fast=0/401 | sb "
     "entries=0 full=0 partial=0 replayed=0 bridged=0 "
     "refused=0/0/0/0/0/0"},
    {"browser", browser, true,
     "rounds=2508 ops=55562 polls=36 access=18015 fast=9860/27739 | sb "
     "entries=0 full=0 partial=0 replayed=0 bridged=0 "
     "refused=0/0/0/0/0/0"},
    // Batching amortizes scheduler rounds over many ops; the per-op
    // reference loop takes one round per op by definition.
    {"solo_compute_batched", [] { return soloCompute(true); }, true,
     "rounds=2 ops=5001 polls=2 access=0 fast=0/0 | sb entries=0 "
     "full=0 partial=0 replayed=0 bridged=0 refused=0/0/0/0/0/0"},
    {"solo_compute_per_op", [] { return soloCompute(false); }, false,
     "rounds=5001 ops=5001 polls=2 access=0 fast=0/0 | sb entries=0 "
     "full=0 partial=0 replayed=0 bridged=0 refused=0/0/0/0/0/0"},
};

class WorkCounts : public testing::TestWithParam<Pin>
{
};

TEST_P(WorkCounts, MatchPin)
{
    const Pin &pin = GetParam();
    if (pin.batched && !sim::batchedExecutionDefault())
        GTEST_SKIP() << "LIMITPP_FORCE_NO_BATCH runs this pin per-op";
    EXPECT_EQ(pin.run(), pin.work);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, WorkCounts, testing::ValuesIn(pins),
    [](const testing::TestParamInfo<Pin> &info) {
        return std::string(info.param.name);
    });

// The trace metrics (and the profile meta, from the same list) carry
// the counts under limitbench's per-layer names.
TEST(WorkExport, MetricsUseLimitbenchNames)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).seed(3).build());
    b.kernel().spawn("mem", [](Guest &g) -> Task<void> {
        for (unsigned i = 0; i < 1'000; ++i)
            co_await g.load(0x8000 + (i % 64) * 8);
    });
    b.machine().run();
    std::map<std::string, std::uint64_t> m;
    for (const trace::RunCounter &c : analysis::runCounters(b)) {
        if (const auto *n = std::get_if<std::uint64_t>(&c.value))
            m[c.key] = *n;
    }
    const sim::WorkStats &w = b.machine().work();
    EXPECT_GT(w.accessCalls, 0u);
    EXPECT_GT(w.fastHits, 0u);
    EXPECT_EQ(m.at("sim.rounds"), w.rounds);
    EXPECT_EQ(m.at("sim.guest_ops"), w.guestOps);
    EXPECT_EQ(m.at("os.polls"), w.polls);
    EXPECT_EQ(m.at("mem.access_calls"), w.accessCalls);
    EXPECT_EQ(m.at("mem.fast_tries"), w.fastTries);
    EXPECT_EQ(m.at("mem.fast_hits"), w.fastHits);
}

} // namespace
} // namespace limit

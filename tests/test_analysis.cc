/**
 * @file
 * Tests for the analysis plumbing: SimBundle construction options and
 * the ledger aggregation helpers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/args.hh"
#include "analysis/bundle.hh"
#include "os/sysno.hh"

namespace limit {
namespace {

using analysis::BundleOptions;
using analysis::SimBundle;
using sim::EventType;
using sim::Guest;
using sim::PrivMode;
using sim::Task;

TEST(Bundle, DefaultWiresCachesAndKernel)
{
    SimBundle b(BundleOptions::builder().build());
    EXPECT_EQ(b.machine().numCores(), 4u);
    EXPECT_NE(b.hierarchy(), nullptr);
    // The machine's memory model is the hierarchy, not flat memory.
    EXPECT_EQ(b.machine().memory(), b.hierarchy());
    EXPECT_EQ(b.kernel().numThreads(), 0u);
}

TEST(Bundle, FlatMemoryOptionSkipsHierarchy)
{
    SimBundle b(BundleOptions::builder().flatMemory().build());
    EXPECT_EQ(b.hierarchy(), nullptr);
    // Loads still work (flat fixed-latency model).
    std::uint64_t misses = 1;
    b.kernel().spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.load(0x1000);
        misses = g.context().ledger().count(EventType::L1DMiss,
                                            PrivMode::User);
        co_return;
    });
    b.machine().run();
    EXPECT_EQ(misses, 0u); // no cache model => no miss events
}

TEST(Bundle, QuantumOptionPropagates)
{
    SimBundle b(BundleOptions::builder().quantum(123'456).build());
    EXPECT_EQ(b.machine().config().costs.quantum, 123'456u);
}

TEST(Bundle, PmuOptionsPropagate)
{
    SimBundle b(BundleOptions::builder()
                    .pmuCounters(6)
                    .pmuWidth(20)
                    .destructiveRead()
                    .build());
    auto &pmu = b.machine().cpu(0).pmu();
    EXPECT_EQ(pmu.numCounters(), 6u);
    EXPECT_EQ(pmu.features().counterWidth, 20u);
    EXPECT_TRUE(pmu.features().destructiveRead);
}

TEST(Bundle, RunAppliesStopRequest)
{
    SimBundle b(BundleOptions::builder().build());
    std::uint64_t iters = 0;
    b.kernel().spawn("t", [&](Guest &g) -> Task<void> {
        while (!g.shouldStop()) {
            co_await g.compute(1'000);
            ++iters;
        }
        co_return;
    });
    const sim::Tick end = b.run(500'000);
    EXPECT_GE(end, 500'000u);
    EXPECT_GT(iters, 100u);
}

TEST(TotalEvent, SumsAcrossThreadsAndModes)
{
    SimBundle b(BundleOptions::builder().cores(2).build());
    for (int i = 0; i < 3; ++i) {
        b.kernel().spawn(std::string("t") + std::to_string(i),
                         [](Guest &g) -> Task<void> {
                             co_await g.compute(1'000);
                             co_await g.syscall(os::sysNop);
                             co_return;
                         });
    }
    b.machine().run();
    const auto user = analysis::totalEvent(
        b.kernel(), EventType::Instructions, PrivMode::User);
    const auto kernel = analysis::totalEvent(
        b.kernel(), EventType::Instructions, PrivMode::Kernel);
    const auto both =
        analysis::totalEvent(b.kernel(), EventType::Instructions);
    EXPECT_EQ(both, user + kernel);
    EXPECT_GE(user, 3'000u);
    EXPECT_GT(kernel, 0u);

    std::uint64_t manual = 0;
    for (unsigned t = 0; t < b.kernel().numThreads(); ++t)
        manual += b.kernel().thread(t).ctx.ledger().total(
            EventType::Instructions);
    EXPECT_EQ(both, manual);
}

TEST(PercentOf, HandlesZeroDenominator)
{
    EXPECT_EQ(analysis::percentOf(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(analysis::percentOf(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(analysis::percentOf(0, 10), 0.0);
}

TEST(BundleBuilder, SettersPropagateIntoTheBundle)
{
    SimBundle b(BundleOptions::builder()
                    .cores(2)
                    .pmuCounters(6)
                    .pmuWidth(20)
                    .destructiveRead()
                    .quantum(123'456)
                    .seed(42)
                    .build());
    EXPECT_EQ(b.machine().numCores(), 2u);
    auto &pmu = b.machine().cpu(0).pmu();
    EXPECT_EQ(pmu.numCounters(), 6u);
    EXPECT_EQ(pmu.features().counterWidth, 20u);
    EXPECT_TRUE(pmu.features().destructiveRead);
    EXPECT_EQ(b.machine().config().costs.quantum, 123'456u);
}

TEST(BundleBuilder, TraceCapacityCreatesTracer)
{
    SimBundle untraced(BundleOptions::builder().cores(1).build());
    EXPECT_EQ(untraced.tracer(), nullptr);

    SimBundle traced(BundleOptions::builder().cores(2).trace().build());
    ASSERT_NE(traced.tracer(), nullptr);
    EXPECT_EQ(traced.tracer()->numCores(), 2u);
}

TEST(BundleBuilderDeathTest, RejectsInvalidCombinations)
{
    EXPECT_DEATH(BundleOptions::builder().cores(0).build(),
                 "at least one core");
    EXPECT_DEATH(BundleOptions::builder().pmuCounters(0).build(),
                 "pmuCounters must be in");
    EXPECT_DEATH(BundleOptions::builder().pmuWidth(4).build(),
                 "pmuWidth must be in");
    EXPECT_DEATH(BundleOptions::builder().pmuWidth(70).build(),
                 "pmuWidth must be in");
    EXPECT_DEATH(BundleOptions::builder()
                     .virtualizeCounters(false)
                     .taggedVirtualization()
                     .build(),
                 "taggedVirtualization requires");
}

TEST(BundleBuilderDeathTest, RejectsMemoryModelConflicts)
{
    // Both orders: the conflict is between the two requests, not the
    // call sequence.
    EXPECT_DEATH(BundleOptions::builder()
                     .flatMemory()
                     .hierarchy(mem::HierarchyConfig{})
                     .build(),
                 "flatMemory\\(\\) conflicts");
    EXPECT_DEATH(BundleOptions::builder()
                     .hierarchy(mem::HierarchyConfig{})
                     .flatMemory()
                     .build(),
                 "flatMemory\\(\\) conflicts");
    // Per-field cache setters count as asking for the hierarchy.
    EXPECT_DEATH(
        BundleOptions::builder().flatMemory().l1Size(65536).build(),
        "flatMemory\\(\\) conflicts");
}

TEST(BundleBuilderDeathTest, RejectsBadCacheGeometry)
{
    EXPECT_DEATH(BundleOptions::builder().l1Size(0).build(),
                 "l1d size");
    // 3000 bytes / 64-byte lines = 46.875 lines: inconsistent.
    EXPECT_DEATH(BundleOptions::builder().l1Size(3000).build(), "l1d");
    // 24 KiB / 64 B / 8 ways = 48 sets: not a power of two.
    EXPECT_DEATH(BundleOptions::builder().l1Size(24 * 1024).build(),
                 "power of two");
    mem::HierarchyConfig noWays;
    noWays.l1d.ways = 0;
    EXPECT_DEATH(BundleOptions::builder().hierarchy(noWays).build(),
                 "l1d needs ways");
    mem::HierarchyConfig noL2;
    noL2.l2.sizeBytes = 0;
    EXPECT_DEATH(BundleOptions::builder().hierarchy(noL2).build(), "l2");
    mem::HierarchyConfig noLlc;
    noLlc.llc.sizeBytes = 0;
    EXPECT_DEATH(BundleOptions::builder().hierarchy(noLlc).build(),
                 "llc");
    EXPECT_DEATH(BundleOptions::builder().tlbEntries(0).build(),
                 "tlbEntries");
}

TEST(BundleBuilder, PerFieldHierarchySettersTargetOneKnob)
{
    const BundleOptions o = BundleOptions::builder()
                                .l1Size(16 * 1024)
                                .l1Latency(6)
                                .l2Latency(20)
                                .memLatency(300)
                                .tlbEntries(32)
                                .nextLinePrefetch()
                                .build();
    EXPECT_TRUE(o.useCaches);
    EXPECT_EQ(o.hierarchy.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(o.hierarchy.l1Latency, 6u);
    EXPECT_EQ(o.hierarchy.l2Latency, 20u);
    EXPECT_EQ(o.hierarchy.memLatency, 300u);
    EXPECT_EQ(o.hierarchy.dtlb.entries, 32u);
    EXPECT_TRUE(o.hierarchy.nextLinePrefetch);
    // Untouched knobs keep the Xeon-class defaults.
    EXPECT_EQ(o.hierarchy.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(o.hierarchy.llc.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(o.hierarchy.llcLatency, 38u);
    EXPECT_EQ(o.hierarchy.tlbMissPenalty, 60u);
}

TEST(BundleBuilder, FromDerivesVariantsWithoutDisturbingTheBase)
{
    const BundleOptions base = BundleOptions::builder()
                                   .cores(2)
                                   .pmuWidth(20)
                                   .l1Size(16 * 1024)
                                   .quantum(50'000)
                                   .build();
    const BundleOptions variant =
        BundleOptions::Builder::from(base).l1Size(8 * 1024).build();
    EXPECT_EQ(variant.hierarchy.l1d.sizeBytes, 8u * 1024);
    // Everything else carries over from the base.
    EXPECT_EQ(variant.cores, 2u);
    EXPECT_EQ(variant.pmuFeatures.counterWidth, 20u);
    EXPECT_EQ(variant.quantum, 50'000u);
    EXPECT_EQ(base.hierarchy.l1d.sizeBytes, 16u * 1024);
    // A flat-memory base still rejects cache perturbations.
    const BundleOptions flat =
        BundleOptions::builder().flatMemory().build();
    EXPECT_DEATH(BundleOptions::Builder::from(flat).l1Size(4096).build(),
                 "flatMemory\\(\\) conflicts");
}

// ---------------------------------------------------------------------
// Bench argument parsing (the non-exiting tryParseBenchArgs core)
// ---------------------------------------------------------------------

/** Run tryParseBenchArgs over a literal argv. */
analysis::BenchParse
parseArgs(std::initializer_list<const char *> argv,
          analysis::BenchDefaults defaults = {})
{
    std::vector<char *> v;
    v.push_back(const_cast<char *>("bench"));
    for (const char *a : argv)
        v.push_back(const_cast<char *>(a));
    return analysis::tryParseBenchArgs(static_cast<int>(v.size()),
                                       v.data(), defaults);
}

TEST(BenchArgs, ParsesAllFlagsInBothSpellings)
{
    const auto p = parseArgs({"--seeds", "5", "--jobs=3",
                              "--trace", "out.json",
                              "--faults=overflow-read:step=2;drop-pmi"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_FALSE(p.help);
    EXPECT_EQ(p.args.seeds, 5u);
    EXPECT_EQ(p.args.jobs, 3u);
    EXPECT_EQ(p.args.trace, "out.json");
    EXPECT_EQ(p.args.faults, "overflow-read:step=2;drop-pmi");
}

TEST(BenchArgs, DefaultsFlowThroughUntouched)
{
    const auto p = parseArgs({}, {.seeds = 7, .jobs = 0});
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.args.seeds, 7u);
    EXPECT_EQ(p.args.jobs, 0u);
    EXPECT_TRUE(p.args.faults.empty());
    EXPECT_FALSE(p.args.tracing());
}

TEST(BenchArgs, HelpIsNotAnError)
{
    EXPECT_TRUE(parseArgs({"--help"}).help);
    EXPECT_TRUE(parseArgs({"-h"}).help);
    EXPECT_TRUE(parseArgs({"--help"}).ok());
}

TEST(BenchArgs, RejectsUnknownFlags)
{
    const auto p = parseArgs({"--frobnicate", "3"});
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("unknown argument"), std::string::npos);
    EXPECT_NE(p.error.find("--frobnicate"), std::string::npos);
    // A removed flag fails loudly instead of being silently ignored.
    for (const auto &q :
         {parseArgs({"--shards", "4"}), parseArgs({"--shards=2"}),
          parseArgs({"--job-timeout", "2.5"}),
          parseArgs({"--journal=e15.journal"}), parseArgs({"--resume"}),
          parseArgs({"--sentinel"}), parseArgs({"--sentinel-every", "4"}),
          parseArgs({"--status-file=hb.json"}), parseArgs({"--no-batch"}),
          parseArgs({"--no-superblock"}),
          parseArgs({"--profile-out", "x"}),
          parseArgs({"--trace-cap", "64"})}) {
        ASSERT_FALSE(q.ok());
        EXPECT_NE(q.error.find("unknown argument"), std::string::npos);
    }
}

TEST(BenchArgs, RejectsNonNumericValues)
{
    const auto p = parseArgs({"--seeds", "abc"});
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("--seeds"), std::string::npos);
    EXPECT_NE(p.error.find("abc"), std::string::npos);
    EXPECT_FALSE(parseArgs({"--jobs=2x"}).ok());
    EXPECT_FALSE(parseArgs({"--timeline-interval", "1e6"}).ok());
}

TEST(BenchArgs, RejectsNegativeValuesExplicitly)
{
    // strtoul would wrap "-1" to a huge unsigned; the parser must
    // name the real problem instead.
    const auto p = parseArgs({"--jobs=-1"});
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("negative"), std::string::npos);
    EXPECT_FALSE(parseArgs({"--seeds", "-5"}).ok());
}

TEST(BenchArgs, RejectsMissingAndOutOfRangeValues)
{
    EXPECT_FALSE(parseArgs({"--seeds"}).ok());
    EXPECT_FALSE(parseArgs({"--trace"}).ok());
    EXPECT_FALSE(parseArgs({"--faults"}).ok());
    EXPECT_FALSE(parseArgs({"--seeds", "0"}).ok());
    EXPECT_FALSE(parseArgs({"--jobs", "100000001"}).ok());
}

TEST(BenchArgs, ValidatesFaultPlanGrammarUpFront)
{
    const auto p = parseArgs({"--faults", "warp-core-breach"});
    ASSERT_FALSE(p.ok());
    EXPECT_NE(p.error.find("bad --faults spec"), std::string::npos);
    EXPECT_FALSE(parseArgs({"--faults=preempt-read:step=99"}).ok());
    EXPECT_TRUE(parseArgs({"--faults=stall-syscall:ticks=500"}).ok());
}

TEST(BenchArgs, ParsesObservabilityFlags)
{
    const auto p = parseArgs({"--timeline", "tl.json",
                              "--timeline-interval=4096"});
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.args.timeline, "tl.json");
    EXPECT_EQ(p.args.timelineInterval, 4096u);
    EXPECT_TRUE(p.args.timelineOn());
    EXPECT_TRUE(p.args.instrumented());
    // The representative run records a timeline and, with no trace
    // or profile requested, no trace.
    const BundleOptions o =
        BundleOptions::builder().capture(&p.args).build();
    EXPECT_EQ(o.timelineInterval, 4096u);
    EXPECT_FALSE(o.trace);
    // --timeline-interval alone arms nothing: no file, no recorder.
    const auto q = parseArgs({"--timeline-interval", "8192"});
    ASSERT_TRUE(q.ok()) << q.error;
    EXPECT_FALSE(q.args.timelineOn());
    EXPECT_FALSE(q.args.instrumented());
    EXPECT_EQ(BundleOptions::builder().capture(&q.args).build()
                  .timelineInterval,
              0u);
    // --profile takes a file, as --trace and --timeline do, and its
    // representative run is traced: the profile pairs syscall records.
    const auto r = parseArgs({"--profile", "p.json"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.args.profile, "p.json");
    EXPECT_TRUE(r.args.profiling());
    EXPECT_TRUE(r.args.instrumented());
    EXPECT_TRUE(BundleOptions::builder().capture(&r.args).build().trace);
    // A fan-out job captures nothing.
    EXPECT_FALSE(BundleOptions::builder().capture(nullptr).build().trace);
}

TEST(BenchArgs, RejectsDegenerateObservabilityValues)
{
    // A sub-256-cycle slice allocates one full event-vector row per
    // handful of ops; reject it.
    for (const char *bad : {"0", "1", "255"}) {
        const auto p =
            parseArgs({"--timeline-interval", bad, "--timeline=t.json"});
        ASSERT_FALSE(p.ok()) << bad;
        EXPECT_NE(p.error.find("--timeline-interval"),
                  std::string::npos);
    }
    EXPECT_TRUE(parseArgs({"--timeline-interval", "256"}).ok());
    // Empty artifact paths are configuration mistakes, not requests,
    // and an operand that starts with '-' is the next flag, not a file.
    for (const auto &q :
         {parseArgs({"--timeline"}), parseArgs({"--timeline="}),
          parseArgs({"--profile"}), parseArgs({"--profile="}),
          parseArgs({"--trace", "--profile"}),
          parseArgs({"--trace", "--profile", "p.json"}),
          parseArgs({"--profile", "--trace", "t.json"}),
          parseArgs({"--timeline", "-"}),
          parseArgs({"--profile=-p.json"})}) {
        ASSERT_FALSE(q.ok());
        EXPECT_NE(q.error.find("needs a file name"), std::string::npos)
            << q.error;
    }
}

} // namespace
} // namespace limit

/**
 * @file
 * Exact timeline profiler tests.
 *
 * The TimelineRecorder slices every core's full PMU event vector at
 * fixed guest-cycle intervals, with each event delta attributed to
 * the slice in force when it was applied. The captured matrix must be
 * *bit-identical* across both execution modes (batched, with the
 * declared loop replayed, and per-op) and conserve events exactly
 * against the ledgers; buildTimeline layers deterministic phase
 * segmentation on top.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bundle.hh"
#include "prof/report.hh"
#include "prof/timeline.hh"
#include "sim/machine.hh"
#include "sim/timeline.hh"

namespace limit {
namespace {

using sim::EventDeltas;
using sim::EventType;
using sim::Guest;
using sim::Task;
using sim::TimelineRecorder;

constexpr unsigned kInterval = 4096;

/** Mixed compute/memory run with mid-run behaviour changes. */
analysis::SimBundle
makeBundle(bool batched)
{
    return analysis::SimBundle(analysis::BundleOptions::builder()
                                   .cores(2)
                                   .quantum(10'000)
                                   .seed(33)
                                   .batched(batched)
                                   .timelineInterval(kInterval)
                                   .build());
}

sim::Tick
runWorkload(analysis::SimBundle &b)
{
    for (unsigned i = 0; i < 3; ++i) {
        b.kernel().spawn(
            "phase" + std::to_string(i), [](Guest &g) -> Task<void> {
                // Compute-heavy first, then memory-heavy: a real phase
                // change for the segmentation to find.
                for (unsigned s = 0; s < 300; ++s)
                    co_await g.compute(40 + g.rng().below(30));
                for (unsigned s = 0; s < 300; ++s) {
                    const sim::Addr a =
                        0x40000 + g.rng().below(1 << 15) * 8;
                    co_await g.load(a);
                    co_await g.store(a + 8);
                    co_await g.compute(2);
                }
                // A declared hot loop: batched, it retires through
                // replay, whose spans must still split at slice
                // boundaries exactly where per-op events do.
                const sim::Addr hot = 0x400000 + g.tid() * 0x10000;
                g.declareLoop({{sim::OpKind::Load},
                               {sim::OpKind::Compute, 3}});
                for (unsigned s = 0; s < 3'000; ++s) {
                    co_await g.load(hot + (s % 64) * 8);
                    co_await g.compute(3);
                }
            });
    }
    return b.run(400'000);
}

/** Flattened slice matrix: core-major, slice-major, event-major. */
std::vector<std::uint64_t>
flattenLanes(const TimelineRecorder &recorder)
{
    std::vector<std::uint64_t> out;
    for (const sim::TimelineLane &lane : recorder.lanes())
        for (const EventDeltas &d : lane.slices)
            for (unsigned e = 0; e < sim::numEventTypes; ++e)
                out.push_back(d.counts[e]);
    return out;
}

TEST(TimelineRecorder, SlicesBitIdenticalAcrossExecutionModes)
{
    std::vector<std::uint64_t> flat[2];
    std::string json[2];
    for (int m = 0; m < 2; ++m) {
        analysis::SimBundle b = makeBundle(/*batched=*/m == 0);
        const sim::Tick end = runWorkload(b);
        ASSERT_NE(b.timeline(), nullptr);
        b.timeline()->finalize(b.machine().maxTime());
        EXPECT_EQ(end, b.machine().maxTime());
        flat[m] = flattenLanes(*b.timeline());
        if (m == 0 && sim::batchedExecutionDefault()) {
            // Otherwise the comparison below proves nothing about how
            // replayed spans land in slices.
            EXPECT_GT(b.machine().superblockStats().opsReplayed, 0u);
        }

        prof::Report report;
        report.schema("limitpp-timeline-v1");
        report.addTimeline(prof::buildTimeline("t", *b.timeline()));
        json[m] = report.toJson();
    }
    EXPECT_EQ(flat[0], flat[1]) << "batched vs per-op";
    EXPECT_EQ(json[0], json[1]);
}

TEST(TimelineRecorder, SliceSumsConserveEveryEventExactly)
{
    analysis::SimBundle b = makeBundle(true);
    runWorkload(b);
    b.timeline()->finalize(b.machine().maxTime());

    // Core-summed slice deltas must equal the ledger totals event by
    // event: slicing is a partition of the event stream, not a
    // sampling of it.
    EventDeltas sliced{};
    for (const sim::TimelineLane &lane : b.timeline()->lanes())
        for (const EventDeltas &d : lane.slices)
            sliced += d;
    for (unsigned e = 0; e < sim::numEventTypes; ++e) {
        const auto ev = static_cast<EventType>(e);
        EXPECT_EQ(sliced.counts[e], analysis::totalEvent(b.kernel(), ev))
            << sim::eventName(ev);
    }
}

TEST(TimelineRecorder, FinalizePadsEveryLaneToTheMachineClock)
{
    analysis::SimBundle b = makeBundle(true);
    runWorkload(b);
    TimelineRecorder *tl = b.timeline();
    const std::uint64_t expect =
        b.machine().maxTime() / tl->interval() + 1;
    tl->finalize(b.machine().maxTime());
    EXPECT_TRUE(tl->finalized());
    EXPECT_EQ(tl->numSlices(), expect);
    for (const sim::TimelineLane &lane : tl->lanes())
        EXPECT_EQ(lane.slices.size(), expect);
    // Idempotent: a second finalize changes nothing.
    const std::vector<std::uint64_t> before = flattenLanes(*tl);
    tl->finalize(b.machine().maxTime());
    EXPECT_EQ(flattenLanes(*tl), before);
}

TEST(TimelineRecorderDeathTest, RejectsZeroInterval)
{
    EXPECT_DEATH(TimelineRecorder(0), "interval");
}

TEST(BuildTimeline, SegmentsSyntheticPhaseChange)
{
    // Hand-build two starkly different regimes: pure compute, then
    // load-heavy. Segmentation must put a boundary at the switch.
    TimelineRecorder rec(1000);
    rec.attach(1);
    sim::TimelineLane &lane = rec.lane(0);
    for (unsigned s = 0; s < 8; ++s) {
        lane.curIndex = s;
        lane.cur = EventDeltas{};
        lane.cur[EventType::Cycles] = 1000;
        lane.cur[EventType::Instructions] = 900;
        if (s < 4) {
            lane.cur[EventType::Branches] = 300;
        } else {
            lane.cur[EventType::Loads] = 450;
            lane.cur[EventType::L1DMiss] = 200;
        }
        lane.flush();
        lane.cur = EventDeltas{};
    }
    rec.finalize(7999);

    const prof::Report::TimelineSection t =
        prof::buildTimeline("synthetic", rec);
    ASSERT_EQ(t.cores.size(), 1u);
    ASSERT_EQ(t.cores[0].size(), 8u);
    ASSERT_EQ(t.phases.size(), 2u);
    EXPECT_EQ(t.phases[0].firstSlice, 0u);
    EXPECT_EQ(t.phases[0].numSlices, 4u);
    EXPECT_EQ(t.phases[0].dominant, "branches");
    EXPECT_EQ(t.phases[1].firstSlice, 4u);
    EXPECT_EQ(t.phases[1].numSlices, 4u);
    EXPECT_EQ(t.phases[1].dominant, "loads");
    EXPECT_NEAR(t.phases[0].ipc, 0.9, 1e-9);
}

TEST(BuildTimeline, IdleRecorderYieldsOneIdlePhase)
{
    TimelineRecorder rec(512);
    rec.attach(2);
    rec.finalize(2047); // 4 empty slices per lane
    const prof::Report::TimelineSection t =
        prof::buildTimeline("idle", rec);
    ASSERT_EQ(t.phases.size(), 1u);
    EXPECT_EQ(t.phases[0].dominant, "idle");
    EXPECT_EQ(t.phases[0].ipc, 0.0);
}

TEST(TimelineReport, JsonAndAsciiCarryTheSection)
{
    analysis::SimBundle b = makeBundle(true);
    runWorkload(b);
    b.timeline()->finalize(b.machine().maxTime());

    prof::Report report;
    report.schema("limitpp-timeline-v1");
    report.addTimeline(prof::buildTimeline("mix", *b.timeline()));
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"timeline\": ["), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"mix\""), std::string::npos);
    EXPECT_NE(json.find("\"interval_ticks\": 4096"), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);

    const std::string ascii = report.timelineAscii();
    EXPECT_NE(ascii.find("timeline 'mix'"), std::string::npos);
    EXPECT_NE(ascii.find("core 0"), std::string::npos);
    EXPECT_NE(ascii.find("core 1"), std::string::npos);
    EXPECT_NE(ascii.find("phase 0"), std::string::npos);
}

TEST(TimelineRecorder, DetachedCpuRecordsNothing)
{
    // No timelineInterval → no recorder, and the hot path stays cold.
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .seed(5)
                              .build());
    EXPECT_EQ(b.timeline(), nullptr);
    b.kernel().spawn("t", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 100; ++i)
            co_await g.compute(10);
    });
    b.run(50'000);
}

} // namespace
} // namespace limit

/**
 * @file
 * Tests for the tracing and metrics subsystem: ring wrap-around,
 * per-core isolation, exporter JSON well-formedness, the metrics
 * registry, and the kernel/PEC tracepoints firing end-to-end.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/bundle.hh"
#include "analysis/trace_report.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "trace/exporter.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace limit {
namespace {

using trace::TraceEvent;
using trace::TraceRecord;

// --- minimal JSON well-formedness checker ------------------------------
//
// Recursive descent over the grammar, keeping no values: enough to
// prove the exporter emits JSON a real parser would accept, without
// adding a JSON library dependency.

bool jsonValue(std::string_view s, std::size_t &pos);

void
jsonWs(std::string_view s, std::size_t &pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])))
        ++pos;
}

bool
jsonString(std::string_view s, std::size_t &pos)
{
    if (pos >= s.size() || s[pos] != '"')
        return false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
        if (s[pos] == '\\') {
            if (pos + 1 >= s.size())
                return false;
            ++pos;
        }
        ++pos;
    }
    if (pos >= s.size())
        return false;
    ++pos; // closing quote
    return true;
}

bool
jsonNumber(std::string_view s, std::size_t &pos)
{
    const std::size_t start = pos;
    if (pos < s.size() && s[pos] == '-')
        ++pos;
    bool digits = false;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) ||
            s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
            s[pos] == '+' || s[pos] == '-')) {
        digits = digits ||
                 std::isdigit(static_cast<unsigned char>(s[pos]));
        ++pos;
    }
    return digits && pos > start;
}

bool
jsonObject(std::string_view s, std::size_t &pos)
{
    ++pos; // '{'
    jsonWs(s, pos);
    if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return true;
    }
    while (true) {
        jsonWs(s, pos);
        if (!jsonString(s, pos))
            return false;
        jsonWs(s, pos);
        if (pos >= s.size() || s[pos] != ':')
            return false;
        ++pos;
        if (!jsonValue(s, pos))
            return false;
        jsonWs(s, pos);
        if (pos >= s.size())
            return false;
        if (s[pos] == ',') {
            ++pos;
            continue;
        }
        if (s[pos] == '}') {
            ++pos;
            return true;
        }
        return false;
    }
}

bool
jsonArray(std::string_view s, std::size_t &pos)
{
    ++pos; // '['
    jsonWs(s, pos);
    if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return true;
    }
    while (true) {
        if (!jsonValue(s, pos))
            return false;
        jsonWs(s, pos);
        if (pos >= s.size())
            return false;
        if (s[pos] == ',') {
            ++pos;
            continue;
        }
        if (s[pos] == ']') {
            ++pos;
            return true;
        }
        return false;
    }
}

bool
jsonLiteral(std::string_view s, std::size_t &pos, std::string_view lit)
{
    if (s.substr(pos, lit.size()) != lit)
        return false;
    pos += lit.size();
    return true;
}

bool
jsonValue(std::string_view s, std::size_t &pos)
{
    jsonWs(s, pos);
    if (pos >= s.size())
        return false;
    switch (s[pos]) {
      case '{': return jsonObject(s, pos);
      case '[': return jsonArray(s, pos);
      case '"': return jsonString(s, pos);
      case 't': return jsonLiteral(s, pos, "true");
      case 'f': return jsonLiteral(s, pos, "false");
      case 'n': return jsonLiteral(s, pos, "null");
      default: return jsonNumber(s, pos);
    }
}

bool
jsonWellFormed(std::string_view s)
{
    std::size_t pos = 0;
    if (!jsonValue(s, pos))
        return false;
    jsonWs(s, pos);
    return pos == s.size();
}

TraceRecord
makeRecord(sim::Tick tick, std::uint64_t a0)
{
    TraceRecord r;
    r.tick = tick;
    r.a0 = a0;
    r.event = TraceEvent::ContextSwitch;
    return r;
}

// --- Ring --------------------------------------------------------------

TEST(TraceRing, FillsWithoutDropsUpToCapacity)
{
    trace::Ring ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 0u);
    ring.push(makeRecord(1, 0));
    ring.push(makeRecord(2, 1));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.written(), 2u);
    EXPECT_EQ(ring.dropped(), 0u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].a0, 0u);
    EXPECT_EQ(snap[1].a0, 1u);
}

TEST(TraceRing, WrapAroundKeepsNewestOldestFirst)
{
    trace::Ring ring(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        ring.push(makeRecord(10 * i, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.written(), 6u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest two records (a0 = 0, 1) were overwritten.
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].a0, i + 2);
}

// --- Tracer ------------------------------------------------------------

TEST(Tracer, PerCoreRingsAreIsolated)
{
    trace::Tracer t(2, 8);
    t.record(0, TraceEvent::ContextSwitch, 10, 1);
    t.record(1, TraceEvent::SyscallEnter, 5, 2, os::sysYield);
    t.record(0, TraceEvent::ContextSwitch, 20, 1);
    t.record(1, TraceEvent::SyscallExit, 15, 2, os::sysYield);

    EXPECT_EQ(t.ring(0).written(), 2u);
    EXPECT_EQ(t.ring(1).written(), 2u);
    EXPECT_EQ(t.totalRecorded(), 4u);
    EXPECT_EQ(t.totalDropped(), 0u);
    for (const auto &r : t.ring(0).snapshot())
        EXPECT_EQ(r.core, 0u);
    for (const auto &r : t.ring(1).snapshot())
        EXPECT_EQ(r.core, 1u);
}

TEST(Tracer, CountsSurviveRingOverwriteAndMergeIsTimeOrdered)
{
    trace::Tracer t(2, 2);
    // Core 0 sees 5 switches into a 2-slot ring; counts keep all 5.
    for (sim::Tick tick = 0; tick < 5; ++tick)
        t.record(0, TraceEvent::ContextSwitch, 100 - 10 * tick, 1);
    t.record(1, TraceEvent::FutexWake, 75, 2, 0xbeef, 1);

    EXPECT_EQ(t.count(TraceEvent::ContextSwitch), 5u);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Sched), 5u);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Futex), 1u);
    EXPECT_EQ(t.totalDropped(), 3u);

    const auto merged = t.merged();
    ASSERT_EQ(merged.size(), 3u); // 2 retained + 1 futex
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].tick, merged[i].tick);
}

TEST(Tracer, EventNamesAndCategoriesAreStable)
{
    EXPECT_EQ(trace::traceEventName(TraceEvent::ContextSwitch),
              "context-switch");
    EXPECT_EQ(trace::traceEventName(TraceEvent::PmiDelivered),
              "pmi-delivered");
    EXPECT_EQ(trace::traceEventCategory(TraceEvent::FutexWait),
              trace::TraceCategory::Futex);
    EXPECT_EQ(trace::traceEventCategory(TraceEvent::PecRegionExit),
              trace::TraceCategory::Pec);
    EXPECT_EQ(trace::traceCategoryName(trace::TraceCategory::Pmu),
              "pmu");
}

TEST(Tracer, NullTracerExpressionIsSafe)
{
    trace::Tracer *none = nullptr;
    // Must not crash, and must not evaluate the record arguments.
    int evaluated = 0;
    LIMIT_TRACE(none, 0, TraceEvent::ContextSwitch, ++evaluated,
                sim::invalidThread);
    EXPECT_EQ(evaluated, 0);
}

// --- MetricsRegistry ---------------------------------------------------

TEST(Metrics, CountersAndGaugesRoundTrip)
{
    trace::MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.add("reads");
    m.add("reads", 4);
    m.set("ipc", 1.25);
    EXPECT_EQ(m.counter("reads"), 5u);
    EXPECT_DOUBLE_EQ(m.gauge("ipc"), 1.25);
    EXPECT_TRUE(m.hasCounter("reads"));
    EXPECT_FALSE(m.hasCounter("ipc"));
    EXPECT_TRUE(m.hasGauge("ipc"));
    EXPECT_EQ(m.counter("never"), 0u);
    EXPECT_FALSE(m.empty());
}

TEST(Metrics, ToJsonIsWellFormedAndSorted)
{
    trace::MetricsRegistry m;
    m.add("b.count", 2);
    m.add("a.count", 1);
    m.set("c.gauge", 0.5);
    const std::string json = m.toJson();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_LT(json.find("a.count"), json.find("b.count"));
    EXPECT_LT(json.find("b.count"), json.find("c.gauge"));
}

// --- Exporter ----------------------------------------------------------

TEST(Exporter, ChromeTraceJsonIsWellFormed)
{
    trace::Tracer t(2, 16);
    t.record(0, TraceEvent::ContextSwitch, 100, 1, 2, 1);
    t.record(1, TraceEvent::SyscallEnter, 200, 2, os::sysYield, 0);
    t.record(1, TraceEvent::SyscallExit, 230, 2, os::sysYield, 0);
    t.record(0, TraceEvent::FutexWake, 300, 1, 0xbeef, 2);
    t.record(0, TraceEvent::PmiDelivered, 400, sim::invalidThread, 0,
             1);

    trace::MetricsRegistry m;
    m.add("x.count", 3);
    m.set("y.gauge", 1.5);

    std::ostringstream out;
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    trace::writeChromeTrace(out, t, &m, opts);
    const std::string json = out.str();

    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"context-switch\""), std::string::npos);
    // The syscall-name hook decodes sysYield for syscall events.
    EXPECT_NE(json.find("\"yield\""), std::string::npos);
    // PMI from an idle core carries tid -1.
    EXPECT_NE(json.find("\"tid\": -1"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(Exporter, AsciiSummaryListsCategoriesAndCounts)
{
    trace::Tracer t(1, 8);
    t.record(0, TraceEvent::ContextSwitch, 10, 1);
    t.record(0, TraceEvent::ContextSwitch, 20, 2);
    t.record(0, TraceEvent::FutexWait, 30, 1, 0xcafe, 0);
    const std::string s = trace::asciiSummary(t);
    EXPECT_NE(s.find("context-switch"), std::string::npos);
    EXPECT_NE(s.find("futex-wait"), std::string::npos);
    EXPECT_NE(s.find("3 records"), std::string::npos);
}

// --- end-to-end through the simulator ---------------------------------

TEST(TraceIntegration, KernelTracepointsFire)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .traceCapacity(4096)
                              .build());
    for (int i = 0; i < 2; ++i) {
        b.kernel().spawn("t" + std::to_string(i),
                         [](sim::Guest &g) -> sim::Task<void> {
                             for (int j = 0; j < 20; ++j) {
                                 co_await g.compute(100);
                                 co_await g.syscall(os::sysYield);
                             }
                             co_return;
                         });
    }
    b.machine().run();
    trace::Tracer *t = b.tracer();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->count(TraceEvent::ContextSwitch), 0u);
    EXPECT_GT(t->count(TraceEvent::SyscallEnter), 0u);
    EXPECT_EQ(t->count(TraceEvent::SyscallEnter),
              t->count(TraceEvent::SyscallExit));
    // One-core yield ping-pong: every switch saves and restores the
    // same number of enabled counters (none here => no save records).
    EXPECT_EQ(t->count(TraceEvent::CounterSave),
              t->count(TraceEvent::CounterRestore));
}

TEST(TraceIntegration, PecTracepointsFireUnderNarrowCounters)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(1)
                              .pmuWidth(16)
                              .traceCapacity(4096)
                              .build());
    pec::PecSession session(b.kernel());
    session.addEvent(0, sim::EventType::Cycles);
    b.kernel().spawn("t", [&](sim::Guest &g) -> sim::Task<void> {
        for (int i = 0; i < 200; ++i) {
            co_await g.compute(1'000);
            const std::uint64_t v = co_await session.read(g, 0);
            (void)v;
        }
        co_return;
    });
    b.machine().run();
    trace::Tracer *t = b.tracer();
    ASSERT_NE(t, nullptr);
    // A 16-bit cycle counter wraps every 64k cycles: overflow PMIs
    // and kernel fix-ups must both appear.
    EXPECT_GT(t->count(TraceEvent::CounterOverflow), 0u);
    EXPECT_GT(t->count(TraceEvent::PmiDelivered), 0u);
    EXPECT_GT(t->count(TraceEvent::PecOverflowFixup), 0u);
}

TEST(TraceIntegration, UntracedBundleRecordsNothing)
{
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).build());
    EXPECT_EQ(b.tracer(), nullptr);
    b.kernel().spawn("t", [](sim::Guest &g) -> sim::Task<void> {
        co_await g.syscall(os::sysYield);
        co_return;
    });
    b.machine().run();
    // harvest on an untraced bundle is legal and fills ledger metrics.
    analysis::harvestStandardMetrics(b);
    EXPECT_TRUE(b.metrics().hasCounter("ledger.instructions"));
    EXPECT_FALSE(b.metrics().hasCounter("trace.records"));
}

} // namespace
} // namespace limit

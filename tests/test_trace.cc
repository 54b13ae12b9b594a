/**
 * @file
 * Tests for the tracing subsystem: per-core isolation, every record
 * kept, exporter JSON well-formedness, the exported run counters,
 * and the kernel/PEC tracepoints firing end-to-end.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/artifacts.hh"
#include "analysis/bundle.hh"
#include "os/sysno.hh"
#include "pec/pec.hh"
#include "sync/mutex.hh"
#include "trace/exporter.hh"
#include "trace/trace.hh"

namespace limit {
namespace {

using trace::TraceEvent;

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

// --- Tracer ------------------------------------------------------------

TEST(Tracer, PerCoreRingsAreIsolated)
{
    trace::Tracer t(2);
    t.record(0, TraceEvent::ContextSwitch, 10, 1);
    t.record(1, TraceEvent::SyscallEnter, 5, 2, os::sysYield);
    t.record(0, TraceEvent::ContextSwitch, 20, 1);
    t.record(1, TraceEvent::SyscallExit, 15, 2, os::sysYield);

    EXPECT_EQ(t.totalRecorded(), 4u);
    // Each core's records keep their core and their emission order.
    const auto merged = t.merged();
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].core, 1u);
    EXPECT_EQ(merged[0].event, TraceEvent::SyscallEnter);
    EXPECT_EQ(merged[1].core, 0u);
    EXPECT_EQ(merged[2].core, 1u);
    EXPECT_EQ(merged[2].event, TraceEvent::SyscallExit);
    EXPECT_EQ(merged[3].core, 0u);
}

TEST(Tracer, KeepsEveryRecordAndMergeIsTimeOrdered)
{
    // Well past 2^16 records on one core: merged() hands every one
    // back.
    constexpr std::uint64_t n = 100'000;
    trace::Tracer t(2);
    for (std::uint64_t i = 0; i < n; ++i)
        t.record(0, TraceEvent::ContextSwitch, 2 * i, 1, i);
    t.record(1, TraceEvent::FutexWake, 75, 2, 0xbeef, 1);

    EXPECT_EQ(t.count(TraceEvent::ContextSwitch), n);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Sched), n);
    EXPECT_EQ(t.categoryCount(trace::TraceCategory::Futex), 1u);

    const auto merged = t.merged();
    ASSERT_EQ(merged.size(), n + 1);
    for (std::size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].tick, merged[i].tick);
    // The oldest record is still there, and the futex record sits
    // between the switches at ticks 74 and 76.
    EXPECT_EQ(merged.front().a0, 0u);
    EXPECT_EQ(merged[38].event, TraceEvent::FutexWake);
    EXPECT_EQ(merged.back().a0, n - 1);
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

// --- Exporter ----------------------------------------------------------

TEST(Exporter, ChromeTraceJsonIsWellFormed)
{
    trace::Tracer t(2);
    t.record(0, TraceEvent::ContextSwitch, 100, 1, 2, 1);
    t.record(1, TraceEvent::SyscallEnter, 200, 2, os::sysYield, 0);
    t.record(1, TraceEvent::SyscallExit, 230, 2, os::sysYield, 0);
    t.record(0, TraceEvent::FutexWake, 300, 1, 0xbeef, 2);
    t.record(0, TraceEvent::PmiDelivered, 400, sim::invalidThread, 0,
             1);

    const std::vector<trace::RunCounter> metrics = {
        {"y.ratio", 1.5}, {"x.count", std::uint64_t{3}}};

    std::ostringstream out;
    trace::ExportOptions opts;
    opts.syscallName = os::sysName;
    trace::writeChromeTrace(out, t, metrics, opts);
    const std::string json = out.str();

    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"context-switch\""), std::string::npos);
    // The syscall-name hook decodes sysYield for syscall events.
    EXPECT_NE(json.find("\"yield\""), std::string::npos);
    // PMI from an idle core carries tid -1.
    EXPECT_NE(json.find("\"tid\": -1"), std::string::npos);
    // Each core's syscall and PMI counts step a counter track.
    EXPECT_NE(json.find("\"name\": \"syscalls\", \"ph\": \"C\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"pmis\", \"ph\": \"C\""),
              std::string::npos);
    // A flat metrics block, keys sorted, counts as integers.
    EXPECT_NE(json.find("\"metrics\": {\n    \"x.count\": 3,\n"
                        "    \"y.ratio\": 1.5\n  }"),
              std::string::npos)
        << json;
}

TEST(Exporter, AsciiSummaryListsCategoriesAndCounts)
{
    trace::Tracer t(1);
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
                              .trace()
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
                              .trace()
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

TEST(TraceIntegration, IdenticalRunsWriteIdenticalTraces)
{
    // Two same-seed runs of a contended mutex, both alive at once, so
    // their futex words sit at different host addresses. Futex
    // records carry the word's simulated address, so every record
    // matches.
    const analysis::BundleOptions opts =
        analysis::BundleOptions::builder().cores(2).seed(9).trace().build();
    analysis::SimBundle first(opts), second(opts);
    sync::Mutex firstMutex(0x4000), secondMutex(0x4000);
    const auto contend = [](analysis::SimBundle &b, sync::Mutex &mu) {
        for (int i = 0; i < 4; ++i) {
            b.kernel().spawn("t" + std::to_string(i),
                             [&mu](sim::Guest &g) -> sim::Task<void> {
                                 for (int j = 0; j < 30; ++j) {
                                     co_await mu.lock(g);
                                     co_await g.compute(2'000);
                                     co_await mu.unlock(g);
                                     co_await g.compute(500);
                                 }
                             });
        }
        b.machine().run();
    };
    contend(first, firstMutex);
    contend(second, secondMutex);

    ASSERT_GT(first.tracer()->count(TraceEvent::FutexWait), 0u);
    const std::vector<trace::TraceRecord> a = first.tracer()->merged();
    const std::vector<trace::TraceRecord> b = second.tracer()->merged();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].tick == b[i].tick && a[i].event == b[i].event &&
                    a[i].a0 == b[i].a0 && a[i].a1 == b[i].a1 &&
                    a[i].tid == b[i].tid && a[i].core == b[i].core)
            << "record " << i << " ("
            << trace::traceEventName(a[i].event) << ") differs";
    }
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
    // An untraced run exports its ledger totals and no trace keys.
    bool ledger = false;
    for (const trace::RunCounter &c : analysis::runCounters(b)) {
        ledger = ledger || c.key == "ledger.instructions";
        EXPECT_FALSE(c.key.starts_with("trace.")) << c.key;
    }
    EXPECT_TRUE(ledger);
}

} // namespace
} // namespace limit

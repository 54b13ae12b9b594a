#include "trace/exporter.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "sim/timeline.hh"

namespace limit::trace {

namespace {

/** JSON arg key for a record's a0/a1 (nullptr = omit the field). */
struct ArgKeys
{
    const char *a0 = nullptr;
    const char *a1 = nullptr;
};

ArgKeys
argKeys(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ContextSwitch: return {"to_state", "voluntary"};
      case TraceEvent::SyscallEnter: return {"nr", "arg0"};
      case TraceEvent::SyscallExit: return {"nr", "result"};
      case TraceEvent::PmiDelivered: return {"counter", "wraps"};
      case TraceEvent::FutexWait: return {"word", "eagain"};
      case TraceEvent::FutexWake: return {"word", "woken"};
      case TraceEvent::CounterOverflow: return {"counter", "wraps"};
      case TraceEvent::CounterSave: return {"counters", nullptr};
      case TraceEvent::CounterRestore: return {"counters", nullptr};
      case TraceEvent::PecReadRestart: return {"counter", nullptr};
      case TraceEvent::PecDoubleCheckRetry:
        return {"counter", nullptr};
      case TraceEvent::PecOverflowFixup: return {"counter", "wraps"};
      case TraceEvent::PecRegionEnter: return {"region", nullptr};
      case TraceEvent::PecRegionExit: return {"region", nullptr};
      default: return {};
    }
}

bool
isSyscallEvent(TraceEvent e)
{
    return e == TraceEvent::SyscallEnter || e == TraceEvent::SyscallExit;
}

} // namespace

void
writeChromeTrace(std::ostream &os, const Tracer &tracer,
                 const std::vector<RunCounter> &metrics,
                 const ExportOptions &options)
{
    const std::vector<TraceRecord> records = tracer.merged();

    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";

    bool first = true;
    const auto sep = [&]() {
        os << (first ? "\n" : ",\n");
        first = false;
    };

    // Name the pid lanes after the simulated cores. Only cores that
    // actually emitted records get a lane.
    std::set<std::uint16_t> cores;
    for (const TraceRecord &r : records)
        cores.insert(r.core);
    if (options.timeline != nullptr && options.timeline->finalized()) {
        for (unsigned c = 0; c < options.timeline->numLanes(); ++c)
            cores.insert(static_cast<std::uint16_t>(c));
    }
    for (const std::uint16_t c : cores) {
        sep();
        os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
           << c << ", \"args\": {\"name\": \"core " << c << "\"}}";
    }

    char ts[48];
    std::map<std::pair<std::uint16_t, std::string>, std::uint64_t>
        counter_track_state;
    for (const TraceRecord &r : records) {
        sep();
        // Instant events with thread scope: ts in microseconds of
        // simulated time (1 tick = 1/3 ns at the nominal 3 GHz).
        std::snprintf(ts, sizeof ts, "%.6f",
                      sim::ticksToNs(r.tick) / 1000.0);
        os << "    {\"name\": \"" << traceEventName(r.event)
           << "\", \"cat\": \""
           << traceCategoryName(traceEventCategory(r.event))
           << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << ts
           << ", \"pid\": " << r.core << ", \"tid\": ";
        if (r.tid == sim::invalidThread)
            os << -1;
        else
            os << r.tid;
        os << ", \"args\": {";
        const ArgKeys keys = argKeys(r.event);
        bool any = false;
        if (keys.a0) {
            os << "\"" << keys.a0 << "\": " << r.a0;
            any = true;
        }
        if (keys.a1) {
            os << (any ? ", " : "") << "\"" << keys.a1
               << "\": " << r.a1;
            any = true;
        }
        if (isSyscallEvent(r.event) && options.syscallName) {
            const char *name = options.syscallName(
                static_cast<std::uint32_t>(r.a0));
            if (name) {
                os << (any ? ", " : "") << "\"sys\": \"" << name
                   << "\"";
            }
        }
        os << "}}";

        // Counter tracks are cumulative per core, so a viewer
        // shows event *rates* as track slopes.
        const char *track = nullptr;
        switch (r.event) {
          case TraceEvent::ContextSwitch:
            track = "ctx-switches";
            break;
          case TraceEvent::SyscallEnter:
            track = "syscalls";
            break;
          case TraceEvent::PmiDelivered:
            track = "pmis";
            break;
          default:
            break;
        }
        if (track) {
            const std::uint64_t value =
                ++counter_track_state[{r.core, track}];
            sep();
            os << "    {\"name\": \"" << track
               << "\", \"ph\": \"C\", \"ts\": " << ts
               << ", \"pid\": " << r.core
               << ", \"args\": {\"value\": " << value << "}}";
        }
    }

    if (options.timeline != nullptr && options.timeline->finalized()) {
        // One counter track per (core, event): the value at each
        // slice boundary is the event's exact delta over that slice,
        // so the track reads as an exact rate plot, not a sample.
        const sim::TimelineRecorder &tl = *options.timeline;
        sim::EventDeltas any{};
        for (const auto &lane : tl.lanes()) {
            for (const auto &slice : lane.slices)
                any += slice;
        }
        for (unsigned core = 0; core < tl.numLanes(); ++core) {
            const auto &slices = tl.lanes()[core].slices;
            for (unsigned e = 0; e < sim::numEventTypes; ++e) {
                if (any.counts[e] == 0)
                    continue;
                const std::string track =
                    "tl-" +
                    std::string(sim::eventName(
                        static_cast<sim::EventType>(e)));
                for (std::size_t s = 0; s < slices.size(); ++s) {
                    std::snprintf(
                        ts, sizeof ts, "%.6f",
                        sim::ticksToNs(static_cast<sim::Tick>(s) *
                                       tl.interval()) /
                            1000.0);
                    sep();
                    os << "    {\"name\": \"" << track
                       << "\", \"ph\": \"C\", \"ts\": " << ts
                       << ", \"pid\": " << core
                       << ", \"args\": {\"value\": "
                       << slices[s].counts[e] << "}}";
                }
            }
        }
    }

    os << "\n  ],\n  \"metrics\": {";
    std::vector<const RunCounter *> sorted;
    for (const RunCounter &c : metrics)
        sorted.push_back(&c);
    std::sort(sorted.begin(), sorted.end(),
              [](const RunCounter *a, const RunCounter *b) {
                  return a->key < b->key;
              });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        os << (i == 0 ? "" : ",") << "\n    \"" << sorted[i]->key
           << "\": ";
        const auto &v = sorted[i]->value;
        if (const auto *n = std::get_if<std::uint64_t>(&v)) {
            os << *n;
        } else {
            char ratio[32];
            std::snprintf(ratio, sizeof ratio, "%.6g",
                          std::get<double>(v));
            os << ratio;
        }
    }
    os << (sorted.empty() ? "" : "\n  ") << "}\n}\n";
}

std::string
asciiSummary(const Tracer &tracer)
{
    std::string out;
    char line[128];
    std::snprintf(line, sizeof line, "trace summary: %llu records\n",
                  static_cast<unsigned long long>(tracer.totalRecorded()));
    out += line;
    for (unsigned c = 0; c < numTraceCategories; ++c) {
        const auto cat = static_cast<TraceCategory>(c);
        if (tracer.categoryCount(cat) == 0)
            continue;
        std::snprintf(line, sizeof line, "  %-8s %10llu\n",
                      std::string(traceCategoryName(cat)).c_str(),
                      static_cast<unsigned long long>(
                          tracer.categoryCount(cat)));
        out += line;
        for (unsigned e = 0; e < numTraceEvents; ++e) {
            const auto ev = static_cast<TraceEvent>(e);
            if (traceEventCategory(ev) != cat || tracer.count(ev) == 0)
                continue;
            std::snprintf(line, sizeof line, "    %-24s %10llu\n",
                          std::string(traceEventName(ev)).c_str(),
                          static_cast<unsigned long long>(
                              tracer.count(ev)));
            out += line;
        }
    }
    return out;
}

} // namespace limit::trace

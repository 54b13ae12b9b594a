#include "trace/trace.hh"

#include <algorithm>

#include "base/logging.hh"

namespace limit::trace {

std::string_view
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ContextSwitch: return "context-switch";
      case TraceEvent::SyscallEnter: return "syscall-enter";
      case TraceEvent::SyscallExit: return "syscall-exit";
      case TraceEvent::PmiDelivered: return "pmi-delivered";
      case TraceEvent::FutexWait: return "futex-wait";
      case TraceEvent::FutexWake: return "futex-wake";
      case TraceEvent::CounterOverflow: return "counter-overflow";
      case TraceEvent::CounterSave: return "counter-save";
      case TraceEvent::CounterRestore: return "counter-restore";
      case TraceEvent::PecReadRestart: return "pec-read-restart";
      case TraceEvent::PecDoubleCheckRetry:
        return "pec-double-check-retry";
      case TraceEvent::PecOverflowFixup: return "pec-overflow-fixup";
      case TraceEvent::PecRegionEnter: return "pec-region-enter";
      case TraceEvent::PecRegionExit: return "pec-region-exit";
      case TraceEvent::FaultInjected: return "fault-injected";
      default: return "?";
    }
}

TraceCategory
traceEventCategory(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ContextSwitch:
        return TraceCategory::Sched;
      case TraceEvent::SyscallEnter:
      case TraceEvent::SyscallExit:
        return TraceCategory::Syscall;
      case TraceEvent::PmiDelivered:
      case TraceEvent::CounterOverflow:
      case TraceEvent::CounterSave:
      case TraceEvent::CounterRestore:
        return TraceCategory::Pmu;
      case TraceEvent::FutexWait:
      case TraceEvent::FutexWake:
        return TraceCategory::Futex;
      case TraceEvent::FaultInjected:
        return TraceCategory::Fault;
      default:
        return TraceCategory::Pec;
    }
}

std::string_view
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Sched: return "sched";
      case TraceCategory::Syscall: return "syscall";
      case TraceCategory::Pmu: return "pmu";
      case TraceCategory::Futex: return "futex";
      case TraceCategory::Pec: return "pec";
      case TraceCategory::Fault: return "fault";
      default: return "?";
    }
}

Tracer::Tracer(unsigned cores) : records_(cores)
{
    fatal_if(cores == 0, "Tracer needs at least one core");
}

std::uint64_t
Tracer::categoryCount(TraceCategory c) const
{
    std::uint64_t total = 0;
    for (unsigned e = 0; e < numTraceEvents; ++e) {
        if (traceEventCategory(static_cast<TraceEvent>(e)) == c)
            total += counts_[e];
    }
    return total;
}

std::uint64_t
Tracer::totalRecorded() const
{
    std::uint64_t total = 0;
    for (unsigned e = 0; e < numTraceEvents; ++e)
        total += counts_[e];
    return total;
}

std::vector<TraceRecord>
Tracer::merged() const
{
    std::vector<TraceRecord> out;
    std::size_t n = 0;
    for (const std::vector<TraceRecord> &core : records_)
        n += core.size();
    out.reserve(n);
    for (const std::vector<TraceRecord> &core : records_)
        out.insert(out.end(), core.begin(), core.end());
    // stable_sort keeps each core's (already chronological) records in
    // emission order when ticks tie across cores.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

} // namespace limit::trace

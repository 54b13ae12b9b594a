/**
 * @file
 * Low-overhead structured tracing for the simulator itself.
 *
 * Every other layer reports *aggregate* numbers; when a bench cell
 * looks wrong the question is always "what actually happened, in
 * order?". A Tracer answers it: per-core vectors of plain typed
 * records (no formatting, no locking on the recording path), filled
 * from tracepoints in the kernel, the CPUs, and the PEC session, and
 * rendered after the run by the exporter (Chrome trace-event JSON
 * plus an ASCII summary).
 *
 * Recording costs one pointer test plus an append, and only
 * on already-expensive paths (context switches, syscalls, PMIs —
 * never the per-op hot path). With no tracer attached the pointer
 * test is all that remains.
 */

#ifndef LIMIT_TRACE_TRACE_HH
#define LIMIT_TRACE_TRACE_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace limit::trace {

/** Everything a tracepoint can report. */
enum class TraceEvent : std::uint8_t {
    // os::Kernel — scheduling and syscalls.
    ContextSwitch = 0, ///< a0 = new ThreadState, a1 = voluntary
    SyscallEnter,      ///< a0 = syscall nr, a1 = first argument
    SyscallExit,       ///< a0 = syscall nr, a1 = result
    PmiDelivered,      ///< a0 = counter, a1 = wraps
    FutexWait,         ///< a0 = word's simulated address, a1 = 1 when EAGAIN
    FutexWake,         ///< a0 = word's simulated address, a1 = threads woken
    // sim::Cpu / counter virtualization.
    CounterOverflow,   ///< a0 = counter, a1 = wraps (hardware wrap)
    CounterSave,       ///< a0 = enabled counters saved at switch-out
    CounterRestore,    ///< a0 = enabled counters restored at switch-in
    // pec::PecSession / RegionProfiler.
    PecReadRestart,      ///< a0 = counter (kernel-fixup rewind)
    PecDoubleCheckRetry, ///< a0 = counter (userspace retry)
    PecOverflowFixup,    ///< a0 = counter, a1 = wraps absorbed
    PecRegionEnter,      ///< a0 = region id
    PecRegionExit,       ///< a0 = region id
    // fault::PlanController — deterministic fault injection.
    FaultInjected,       ///< a0 = fault::Site, a1 = site-specific arg
    NumEvents, // must be last
};

/** Number of distinct tracepoint types. */
inline constexpr unsigned numTraceEvents =
    static_cast<unsigned>(TraceEvent::NumEvents);

/** Coarse grouping used by the exporter and the ASCII summary. */
enum class TraceCategory : std::uint8_t {
    Sched = 0,
    Syscall,
    Pmu,
    Futex,
    Pec,
    Fault,
    NumCategories, // must be last
};

/** Number of categories. */
inline constexpr unsigned numTraceCategories =
    static_cast<unsigned>(TraceCategory::NumCategories);

/** Stable lowercase-hyphen name (doubles as the JSON event name). */
std::string_view traceEventName(TraceEvent e);

/** Category of one tracepoint type. */
TraceCategory traceEventCategory(TraceEvent e);

/** Stable lowercase category name. */
std::string_view traceCategoryName(TraceCategory c);

/**
 * One tracepoint hit. Plain data, 32 bytes; the meaning of a0/a1
 * depends on the event (see TraceEvent and docs/TRACING.md).
 */
struct TraceRecord
{
    sim::Tick tick = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    sim::ThreadId tid = sim::invalidThread;
    std::uint16_t core = 0;
    TraceEvent event = TraceEvent::NumEvents;
};

/**
 * The per-run trace sink: one growing record vector per core plus
 * aggregate per-event counts. Every record is kept. Attach to a
 * sim::Machine with setTracer(); tracepoints find it through the
 * machine.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned cores);

    unsigned
    numCores() const
    {
        return static_cast<unsigned>(records_.size());
    }

    void
    record(sim::CoreId core, TraceEvent ev, sim::Tick tick,
           sim::ThreadId tid, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        TraceRecord r;
        r.tick = tick;
        r.a0 = a0;
        r.a1 = a1;
        r.tid = tid;
        r.core = static_cast<std::uint16_t>(core);
        r.event = ev;
        records_[core].push_back(r);
        ++counts_[static_cast<unsigned>(ev)];
    }

    /** Hits of one tracepoint type. */
    std::uint64_t
    count(TraceEvent e) const
    {
        return counts_[static_cast<unsigned>(e)];
    }

    /** Hits summed over one category. */
    std::uint64_t categoryCount(TraceCategory c) const;

    /** All hits across all cores. */
    std::uint64_t totalRecorded() const;

    /** Records from every core, merged in time order. */
    std::vector<TraceRecord> merged() const;

  private:
    std::vector<std::vector<TraceRecord>> records_;
    std::uint64_t counts_[numTraceEvents] = {};
};

} // namespace limit::trace

/**
 * Emit a tracepoint iff `tracer_expr` yields a non-null Tracer*; the
 * record arguments are evaluated only then.
 */
#define LIMIT_TRACE(tracer_expr, ...)                                   \
    do {                                                                \
        if (::limit::trace::Tracer *limit_tracer_ = (tracer_expr))      \
            limit_tracer_->record(__VA_ARGS__);                         \
    } while (0)

#endif // LIMIT_TRACE_TRACE_HH

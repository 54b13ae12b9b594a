/**
 * @file
 * One simulated core: executes guest ops, owns a PMU, tracks local time.
 */

#ifndef LIMIT_SIM_CPU_HH
#define LIMIT_SIM_CPU_HH

#include <vector>

#include "sim/cost_model.hh"
#include "sim/guest.hh"
#include "sim/memory_if.hh"
#include "sim/pmu.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace limit::sim {

class Machine;
class KernelIf;
class MemoryIf;
struct WorkStats;

/**
 * A single in-order core.
 *
 * The Machine steps whichever non-idle core has the smallest local
 * time; a step resumes the core's current thread, executes exactly one
 * primitive op, charges its cost, applies events to the PMU and the
 * thread's ground-truth ledger, and delivers any interrupts that
 * became pending (PMU overflow, end-of-quantum timer).
 */
class Cpu
{
  public:
    Cpu(CoreId id, Machine &machine, const CostModel &costs,
        unsigned pmu_counters, const PmuFeatures &pmu_features);

    CoreId id() const { return id_; }
    Tick now() const { return now_; }
    Pmu &pmu() { return pmu_; }
    const Pmu &pmu() const { return pmu_; }
    const CostModel &costs() const { return costs_; }
    Machine &machine() { return machine_; }

    /** Thread currently installed on this core (nullptr when idle). */
    GuestContext *current() { return current_; }
    bool idle() const { return current_ == nullptr; }

    /**
     * Install a thread (kernel context-switch path). Does not charge
     * cycles; the kernel charges switch costs itself.
     */
    void setCurrent(GuestContext *ctx);

    /** Fast-forward an idle core's clock to a waker's time. */
    void syncTimeAtLeast(Tick t);

    /** End of the running thread's time slice (managed by the kernel). */
    Tick quantumEnd = maxTick;

    /** Resume the current thread and execute one op. */
    void step();

    /** Outcome of one runUntil() batch. */
    struct BatchResult
    {
        /** Ops executed (including the one that ended the batch). */
        unsigned ops = 0;
        /**
         * The batch ended on a kernel interaction (syscall, timer
         * tick, PMI delivery, thread exit) that may have changed
         * another core's clock or the set of busy cores; the caller
         * must re-derive its earliest-core ordering from scratch.
         * When false, only this core's clock advanced.
         */
        bool interacted = false;
    };

    /**
     * Horizon-batched execution: one scheduler round on this core.
     * Resumes the current thread, whose co_await points run ops
     * inline through tryInlineOp while the core's clock stays
     * strictly below `bound` and below `poll_at`, up to `max_ops`
     * ops. The first op always executes (the caller has established
     * this core is the global earliest): when tryInlineOp hands an
     * op back (a cross-core-visible op, or any op once the bound,
     * poll deadline or budget is reached), runUntil executes that
     * one op and the round ends. Executes the exact per-op sequence
     * Machine's reference scheduler would: `bound` must be chosen so
     * this core would win the global earliest-core pick for every
     * tick below it.
     */
    BatchResult runUntil(Tick bound, Tick poll_at, Tick hard_limit,
                         unsigned max_ops);

    /**
     * OpAwaiter hook (horizon-batched mode only): execute `ctx.op`
     * right at the co_await point — without suspending the guest
     * coroutine — when it is core-local (compute, load, store or a
     * region op: the issuing core's clock, PMU and ledger, plus
     * memory-model state that only ever changes in global time order)
     * and the batch budget set up by runUntil allows another op.
     * Atomics, rdpmc and syscalls can release locks, deliver PMIs or
     * wake threads, so they always go back to runUntil. Returns true
     * when the op executed AND the guest may keep running; false when
     * the guest must take the suspend path (op not executed — classic
     * scheduler round — or executed with `ctx.opConsumedInline` set
     * because the batch is over). Ops that queue a PMI or cross the
     * quantum end are consumed but never continued: their drain/timer
     * epilogue can context-switch, so runUntil replays it once the
     * coroutine is safely suspended.
     */
    bool tryInlineOp(GuestContext &ctx);

    /**
     * Superblock replay completed its final planned op (called from
     * GuestContext::sbStep via superblockFinishReplay): commit the
     * deferred deltas. Returns true when the guest may keep running
     * inline, false (with ctx.opConsumedInline) when the replay
     * consumed the whole batch budget.
     */
    bool sbFinishReplay(GuestContext &ctx);

    /**
     * A replayed memory op failed the fast-path check (called from
     * GuestContext::sbStep via superblockFullAccess): credit the fast
     * hits retired since the previous full access, run this op's
     * MemoryIf::access into the replay cursor's latency sum and event
     * deltas, and refresh the cursor's page and line validation. The
     * replay goes on; sbTryEnter sized it for every memory op taking
     * this path at its worst-case latency.
     */
    void sbFullAccess(GuestContext &ctx);

    /**
     * Snapshot the memory model's fast-peek view for replay (called
     * by Machine::runBatched once per run). Its pointers are stable
     * for the life of the machine ↔ memory binding, which cannot
     * change mid-run, so runUntil rounds don't pay the virtual
     * fastPeekView call.
     */
    void snapshotFastPeek();

    /**
     * Charge `cycles` of kernel-mode work to the current thread (or to
     * nobody when idle), applying PMU/ledger events and advancing time.
     */
    void kernelWork(Tick cycles);

    /**
     * Attach this core's timeline lane (nullptr detaches). Set by
     * Machine::setTimeline; `interval_ticks` must be > 0 when a lane
     * is attached. With no lane the hot-path cost is one always-false
     * predicted branch per apply.
     */
    void setTimelineLane(TimelineLane *lane, Tick interval_ticks);

    /**
     * Apply event deltas in `mode` to the current thread's ledger and
     * the PMU; queues PMIs for overflowed interrupt-enabled counters.
     * Inline: runs once per guest op.
     */
    void
    applyEvents(PrivMode mode, const EventDeltas &deltas)
    {
        if (tlLane_ != nullptr) [[unlikely]] {
            if (now_ >= tlNextBoundary_)
                tlRoll();
            tlLane_->cur += deltas;
        }
        if (current_)
            current_->ledger().apply(mode, deltas);
        WrapEvent ev[maxPmuCounters];
        const unsigned wrapped = pmu_.applyFast(mode, deltas, ev);
        for (unsigned k = 0; k < wrapped; ++k) {
            if (pmu_.config(ev[k].counter).interruptOnOverflow)
                pendingPmis_.push_back({ev[k].counter, ev[k].wraps});
        }
    }

    /** One (event, count) pair for the sparse apply path. */
    struct SparseDelta
    {
        EventType event;
        std::uint64_t count;
    };

    /**
     * applyEvents for ops whose deltas are a handful of known events
     * (an all-hit load, a compute block): identical counting and PMI
     * behaviour, but N scattered adds instead of zero-initializing
     * and applying the dense 11-event array. Inline: this is the
     * hottest few instructions in the simulator.
     */
    template <unsigned N>
    void
    applyFewEvents(PrivMode mode, const SparseDelta (&d)[N])
    {
        if (tlLane_ != nullptr) [[unlikely]] {
            if (now_ >= tlNextBoundary_)
                tlRoll();
            for (unsigned i = 0; i < N; ++i)
                tlLane_->cur[d[i].event] += d[i].count;
        }
        if (current_) {
            auto &ledger = current_->ledger();
            for (unsigned i = 0; i < N; ++i)
                ledger.add(mode, d[i].event, d[i].count);
        }
        WrapEvent ev[maxPmuCounters];
        const unsigned wrapped = pmu_.applyActive(
            mode,
            [&](unsigned e) {
                std::uint64_t n = 0;
                for (unsigned i = 0; i < N; ++i) {
                    if (static_cast<unsigned>(d[i].event) == e)
                        n += d[i].count;
                }
                return n;
            },
            ev);
        for (unsigned k = 0; k < wrapped; ++k) {
            if (pmu_.config(ev[k].counter).interruptOnOverflow)
                pendingPmis_.push_back({ev[k].counter, ev[k].wraps});
        }
    }

    /** Deliver queued PMIs (with a storm guard). */
    void
    drainOverflows()
    {
        if (pendingPmis_.empty())
            return;
        drainOverflowsSlow();
    }

  private:
    void drainOverflowsSlow();
    /**
     * Cold path of the timeline hook: flush the lane's accumulator
     * into its slice and re-anchor at the slice holding `now_`.
     */
    void tlRoll();
    /**
     * Try to arm a replay of the thread's declared loop at its first
     * op, for the op about to execute: checks fault plans, pending
     * PMIs, the memory fast-path view (its fast and worst-case
     * latencies must be the declared ones), the batch horizon/poll/
     * quantum/timeline-slice limits, the op budget and PMU headroom
     * (no counter may wrap inside the replay), then sizes the replay
     * to the largest iteration count safe under all of them.
     */
    bool sbTryEnter(GuestContext &ctx, const Superblock &block);
    /**
     * Commit a replay's deferred effects (one applyEvents call with
     * the span's totals and its full accesses' miss events, plus the
     * fast-hit credits not yet handed to the memory model) and clear
     * the cursor. `partial` marks replays ended by an op mismatch
     * rather than by plan.
     */
    void sbCommitReplay(GuestContext &ctx, bool partial);
    /**
     * After an inline op or a completed replay: true when the guest
     * may keep running inline; otherwise marks the op consumed
     * (ctx.opConsumedInline) so the batch ends, deferring the
     * drain/timer epilogue to runUntil when one is due.
     */
    bool continueInline(GuestContext &ctx);
    /**
     * Deliver queued PMIs, then take the timer tick if the quantum
     * ran out; runs after every op with the guest suspended.
     */
    void opEpilogue();
    void executeOp(GuestContext &ctx);
    void execCompute(GuestContext &ctx, const PendingOp &op);
    void execMemory(GuestContext &ctx, const PendingOp &op);
    void execAtomic(GuestContext &ctx, const PendingOp &op);
    void execPmcRead(GuestContext &ctx, const PendingOp &op);
    void execSyscall(GuestContext &ctx, const PendingOp &op);
    void execRegion(GuestContext &ctx, const PendingOp &op);

    struct PendingPmi
    {
        unsigned counter;
        std::uint32_t wraps;
        /** Fault controller consulted (consult exactly once per PMI). */
        bool vetted = false;
        /** Earliest delivery time (fault-injected delay; 0 = now). */
        Tick notBefore = 0;
    };

    CoreId id_;
    Machine &machine_;
    CostModel costs_;
    Pmu pmu_;
    Tick now_ = 0;
    GuestContext *current_ = nullptr;
    /**
     * PMIs waiting for delivery, reserved to 2 * maxPmuCounters at
     * construction. One op can wrap at most maxPmuCounters counters
     * and the queue drains at every op boundary, so only a fault plan
     * holding deliveries back (notBefore in the future) across many
     * ops grows it past that; the common PMI path never allocates.
     */
    std::vector<PendingPmi> pendingPmis_;
    double kernelInstrResidue_ = 0.0;
    bool draining_ = false;
    /**
     * Set by any path that re-enters the kernel mid-op (timer tick,
     * PMI delivery, syscall): tells runUntil the global schedule may
     * have changed. Cleared by runUntil before the op or epilogue it
     * runs; meaningless (and harmless) in per-op mode.
     */
    bool kernelRound_ = false;

    /** @name runUntil batch budget (consumed by tryInlineOp) @{ */
    Tick batchBound_ = 0;
    Tick batchPollAt_ = 0;
    Tick batchHardLimit_ = 0;
    unsigned batchOpsLeft_ = 0;
    /** A PMI drain / timer tick was deferred to scheduler context. */
    bool epiloguePending_ = false;
    /** @} */

    /** The machine's superblock and host-work stats (shared by all cores). */
    SuperblockStats &sbStats_;
    WorkStats &work_;

    /**
     * Memory model's fast-path probe view, snapshotted once per run
     * by snapshotFastPeek (the model can be swapped between runs,
     * never inside one) so neither sbTryEnter nor sbFullAccess pays a
     * virtual call for it.
     */
    FastPeekView sbPeek_{};

    /** @name Timeline capture (nullptr lane = disabled) @{ */
    TimelineLane *tlLane_ = nullptr;
    Tick tlInterval_ = 0;
    /**
     * First tick of the slice after tlLane_->curIndex; maxTick when
     * detached so the hot-path compare is always false. May be stale
     * (<= now_) between applies — events apply before the clock
     * advances — so every consumer rolls first.
     */
    Tick tlNextBoundary_ = maxTick;
    /** @} */
};

} // namespace limit::sim

#endif // LIMIT_SIM_CPU_HH

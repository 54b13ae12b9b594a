/**
 * @file
 * The guest instruction-level interface.
 *
 * Guest code (workloads, the synchronization library, counter access
 * libraries) is written as Task coroutines that issue primitive ops
 * through a Guest handle. Each `co_await g.op(...)` suspends the guest
 * until the simulating Cpu has charged the op's cost, applied its
 * architectural events, and produced its result value.
 */

#ifndef LIMIT_SIM_GUEST_HH
#define LIMIT_SIM_GUEST_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <bit>

#include "base/rng.hh"
#include "sim/cost_model.hh"
#include "sim/ledger.hh"
#include "sim/superblock.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace limit::sim {

class Cpu;
class Machine;
class Guest;

/** Primitive operations the Cpu knows how to execute. */
enum class OpKind : std::uint8_t {
    Compute,        ///< `instrs` ALU/branch instructions
    Load,           ///< one load from `addr`
    Store,          ///< one store to `addr`
    AtomicCas,      ///< compare-and-swap on `word`; returns old value
    AtomicFetchAdd, ///< fetch-and-add on `word`; returns old value
    AtomicExchange, ///< swap `a` into `word`; returns old value
    AtomicLoad,     ///< acquire load of `word`; returns value
    AtomicStore,    ///< release store of `a` to `word`
    PmcRead,        ///< rdpmc of counter `counter`; returns hw value
    PmcReadClear,   ///< destructive rdpmc (hardware enhancement #2)
    Syscall,        ///< trap to the kernel, `sysNr`/`sysArgs`
    RegionEnter,    ///< push attribution region `region`
    RegionExit,     ///< pop attribution region
};

/** One suspended guest operation awaiting execution. */
struct PendingOp
{
    OpKind kind = OpKind::Compute;
    std::uint64_t instrs = 0;       ///< Compute instruction count
    ComputeProfile profile{};       ///< Compute branch behaviour
    Addr addr = 0;                  ///< memory operand address
    std::uint64_t *word = nullptr;  ///< host storage for atomics
    std::uint64_t a = 0;            ///< operand (expected / delta / value)
    std::uint64_t b = 0;            ///< operand (desired)
    unsigned counter = 0;           ///< PMC index
    std::uint32_t sysNr = 0;        ///< syscall number
    std::array<std::uint64_t, 4> sysArgs{};
    RegionId region = noRegion;     ///< RegionEnter operand
};

/**
 * Everything the simulator knows about one guest thread.
 *
 * Owned by the OS layer, manipulated by the Cpu during execution.
 * Opaque `osThread`/`pecThread` slots let the kernel and the PEC
 * library hang their per-thread state off the context without
 * layering violations.
 */
class GuestContext
{
  public:
    GuestContext(Machine &machine, ThreadId tid, std::string name,
                 std::uint64_t seed);

    GuestContext(const GuestContext &) = delete;
    GuestContext &operator=(const GuestContext &) = delete;
    ~GuestContext(); // out of line: Guest is incomplete here

    /** Instantiate the coroutine body; it starts suspended. */
    void start(std::function<Task<void>(Guest &)> body);

    /** True when the body ran to completion. */
    bool finished() const { return started_ && body_.done(); }

    Machine &machine() { return machine_; }
    /** The Guest handle bound to this context (valid after start()). */
    Guest &guest() { return *guest_; }
    ThreadId tid() const { return tid_; }
    const std::string &name() const { return name_; }
    Rng &rng() { return rng_; }
    EventLedger &ledger() { return ledger_; }
    const EventLedger &ledger() const { return ledger_; }

    /** Attribution region currently on top of the stack. */
    RegionId
    currentRegion() const
    {
        return regionStack.empty() ? noRegion : regionStack.back();
    }

    /** @name Cpu-facing execution state @{ */
    std::coroutine_handle<>
    resumeHandle()
    {
        panic_if(!started_, "resuming a thread that was never started");
        if (resumePoint) {
            const auto h = resumePoint;
            resumePoint = nullptr;
            return h;
        }
        return body_.handle();
    }
    bool hasOp = false;
    PendingOp op{};
    std::uint64_t result = 0;
    std::coroutine_handle<> resumePoint = nullptr;
    /**
     * Non-null only while Cpu::runUntil is resuming this thread: lets
     * OpAwaiter hand core-local ops straight to Cpu::tryInlineOp
     * without suspending (see DESIGN.md "Safe-horizon batching"). In
     * per-op mode this stays null and every op takes the suspend path.
     */
    Cpu *inlineCpu = nullptr;
    /**
     * The op was executed by tryInlineOp but the batch must end (PMI
     * or quantum epilogue pending, budget/horizon reached), so the
     * guest suspended anyway — without re-publishing the op in hasOp.
     */
    bool opConsumedInline = false;
    /**
     * Superblock replay cursor: non-null `sbr.cur` means the Cpu
     * armed a replay and the awaiter fast path is validating ops
     * against the declared block (see sbStep below).
     */
    SbReplay sbr;
    /**
     * The loop body this thread declared last (Guest::declareLoop),
     * or null. The Cpu tries a replay of it whenever an inline op's
     * kind matches its first op.
     */
    std::unique_ptr<const Superblock> loop;
    /**
     * The declaration `loop` replaced while a replay cursor still
     * pointed into it: kept alive so the cursor stays valid until
     * that replay commits.
     */
    std::unique_ptr<const Superblock> retiredLoop;
    /**
     * One step of superblock replay: validate the pending op against
     * the current micro-op and, on a match, retire it with a single
     * clock add. Returns true when the op was consumed and the guest
     * may continue inline; false when the op mismatched (the Cpu will
     * flush the partial replay and execute it normally) or the replay
     * completed into an ended batch (opConsumedInline set). Defined
     * inline below; this is the hottest code in the simulator.
     */
    bool sbStep() noexcept;
    /**
     * Ticks an in-progress replay has accumulated but not yet folded
     * into the core clock (the commit folds them in one add). Exact:
     * prefix sums cover the residue-independent part, accMisses the
     * mispredict term, and fullTicks replaces the fast-path latency
     * of each full access. Zero when no replay is active.
     */
    Tick sbPendingTicks() const noexcept;
    std::vector<RegionId> regionStack;
    /** Region before the most recent region-stack change (for skid). */
    RegionId prevRegion = noRegion;
    /** Core-local time of the most recent region-stack change. */
    Tick regionChangedAt = 0;
    ComputeProfile defaultProfile{};
    double branchResidue = 0.0;
    double mispredictResidue = 0.0;
    CoreId lastCore = 0;
    /** @} */

    /** @name PMC-read race bookkeeping (see pec/) @{ */
    bool inPmcRead = false;
    bool pmcRestartRequested = false;
    /** @} */

    /** @name Opaque per-subsystem extensions @{ */
    void *osThread = nullptr;
    void *pecThread = nullptr;
    /** @} */

  private:
    friend class Guest;

    Machine &machine_;
    ThreadId tid_;
    std::string name_;
    Rng rng_;
    EventLedger ledger_;
    std::unique_ptr<Guest> guest_;
    /**
     * The body functor is kept alive for the thread's lifetime because
     * a coroutine lambda's captures live in the lambda object, not the
     * coroutine frame. Declared before body_ so the frame (which may
     * reference the captures) is destroyed first.
     */
    std::function<Task<void>(Guest &)> bodyFn_;
    Task<void> body_;
    bool started_ = false;
};

/**
 * Out-of-line completion hook for a replay that consumed its final
 * planned op (defined in cpu.cc; forwards to Cpu::sbFinishReplay).
 * Returns true when the guest may keep running inline.
 */
bool superblockFinishReplay(GuestContext &ctx) noexcept;

/**
 * Out-of-line hook for a replayed memory op that failed the fast-path
 * check (defined in cpu.cc; forwards to Cpu::sbFullAccess): runs it
 * through the full memory model without ending the replay.
 */
void superblockFullAccess(GuestContext &ctx) noexcept;

inline bool
GuestContext::sbStep() noexcept
{
    SbReplay &r = sbr;
    const MicroOp &m = *r.cur;
    const PendingOp &o = op;
    if (o.kind != m.kind) [[unlikely]]
        return false;
    if (m.kind == OpKind::Compute) {
        // Exact operand match, bitwise on the profile doubles: equal
        // bits guarantee execCompute would compute identical costs
        // and residues (stricter than operator==, never unsafe).
        if (o.instrs != m.instrs ||
            std::bit_cast<std::uint64_t>(o.profile.branchFrac) !=
                std::bit_cast<std::uint64_t>(m.profile.branchFrac) ||
            std::bit_cast<std::uint64_t>(o.profile.mispredictRate) !=
                std::bit_cast<std::uint64_t>(m.profile.mispredictRate))
            [[unlikely]]
            return false;
        // The branch/mispredict residues are genuinely dynamic state;
        // run the same recurrence execCompute runs, against the
        // precomputed branchStep (== instrs * branchFrac exactly).
        // Cycles are NOT accumulated per op: the commit reconstructs
        // them exactly from the prefix sums plus accMisses, and
        // Guest::now() adds sbPendingTicks() for mid-replay reads.
        if (m.profile.branchFrac != 0.0) {
            const double branches_f = m.branchStep + branchResidue;
            const auto branches = static_cast<std::uint64_t>(branches_f);
            branchResidue = branches_f - static_cast<double>(branches);
            r.accBranches += branches;
            if (branches != 0 && m.profile.mispredictRate != 0.0) {
                const double miss_f =
                    static_cast<double>(branches) *
                        m.profile.mispredictRate +
                    mispredictResidue;
                const auto misses = static_cast<std::uint64_t>(miss_f);
                mispredictResidue =
                    miss_f - static_cast<double>(misses);
                r.accMisses += misses;
            }
        }
    } else if (!r.memAlwaysHit) {
        // Load/Store: a fast hit needs the same TLB page and the L1
        // MRU way, and retires like a compute op. Anything else (a
        // line or page crossing, a miss, a non-MRU hit) runs through
        // the full memory model right here, and the replay goes on.
        const std::uint64_t line = o.addr >> r.lineShift;
        // Hoisted validation: nothing touches the model between full
        // accesses, so an op on the same line as the previous
        // validated one is valid by that op's check (same line ⇒ same
        // page; the MRU tags cannot have changed). One register
        // compare instead of a page check plus a tags load for runs
        // of same-line accesses.
        if (line != r.lastGoodLine) {
            if ((o.addr >> r.pageShift) == r.pageVal &&
                r.mruTags[(line & r.setMask) << r.waysShift] == line)
                r.lastGoodLine = line;
            else
                superblockFullAccess(*this);
        }
    }
    if (++r.cur == r.opsEnd) [[unlikely]] {
        if (--r.itersLeft == 0)
            return superblockFinishReplay(*this);
        r.cur = r.opsBegin;
    }
    return true;
}

inline Tick
GuestContext::sbPendingTicks() const noexcept
{
    const SbReplay &r = sbr;
    if (r.cur == nullptr)
        return 0;
    const std::uint64_t fullIters = r.itersTotal - r.itersLeft;
    // The prefix sums cost every memory op at the fast latency,
    // including the full accesses, so the subtraction cannot wrap.
    return fullIters * r.block->iterBase + r.cur->prefixBase -
           r.fullOps * r.block->memLat + r.fullTicks +
           r.accMisses * r.mispredictPenalty;
}

/**
 * Awaiter for a primitive guest op.
 *
 * The issuing Guest method has already written the op's fields into
 * ctx->op by the time the awaiter exists (each method sets every field
 * its op kind consumes, so stale fields from earlier ops are never
 * observed), keeping the per-op issue path free of PendingOp copies.
 * Must be awaited immediately — issuing a second op before awaiting
 * the first would overwrite its operands.
 */
class [[nodiscard]] OpAwaiter
{
  public:
    explicit OpAwaiter(GuestContext &ctx) : ctx_(&ctx) {}

    /**
     * Fast path for horizon-batched execution: while Cpu::runUntil is
     * resuming this thread, core-local ops within the batch budget are
     * executed right here and the coroutine never suspends. Everything
     * else (per-op mode, cross-core-visible ops, exhausted horizon)
     * falls through to the suspend path below.
     */
    bool
    await_ready() const noexcept
    {
        GuestContext &c = *ctx_;
        if (c.inlineCpu == nullptr)
            return false;
        if (c.sbr.cur != nullptr) {
            // Replay in progress: the common outcome is another hit,
            // retiring the op without touching the Cpu at all.
            if (c.sbStep())
                return true;
            if (c.opConsumedInline)
                return false; // replay finished and the batch is over
            // Mismatch: fall through — tryInlineOp flushes the
            // partial replay before executing this op normally.
        }
        return inlineExec();
    }

    void
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        // When tryInlineOp already executed the op but ended the
        // batch (opConsumedInline), suspend without re-publishing it.
        ctx_->hasOp = !ctx_->opConsumedInline;
        ctx_->resumePoint = h;
    }

    std::uint64_t await_resume() const noexcept { return ctx_->result; }

  private:
    /** Out of line: forwards to Cpu::tryInlineOp. */
    bool inlineExec() const noexcept;

    GuestContext *ctx_;
};

/**
 * Handle through which guest coroutines issue operations.
 *
 * One Guest exists per thread; it is passed by reference into the
 * thread body and any guest library routines.
 */
class Guest
{
  public:
    explicit Guest(GuestContext &ctx) : ctx_(&ctx) {}

    /** Execute `instrs` ALU/branch instructions (thread default profile). */
    OpAwaiter
    compute(std::uint64_t instrs)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::Compute;
        op.instrs = instrs;
        op.profile = ctx_->defaultProfile;
        return OpAwaiter{*ctx_};
    }

    /** Execute `instrs` instructions with an explicit branch profile. */
    OpAwaiter
    compute(std::uint64_t instrs, const ComputeProfile &profile)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::Compute;
        op.instrs = instrs;
        op.profile = profile;
        return OpAwaiter{*ctx_};
    }

    /** One load from the simulated address `addr`. */
    OpAwaiter
    load(Addr addr)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::Load;
        op.addr = addr;
        return OpAwaiter{*ctx_};
    }

    /** One store to the simulated address `addr`. */
    OpAwaiter
    store(Addr addr)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::Store;
        op.addr = addr;
        return OpAwaiter{*ctx_};
    }

    /**
     * Compare-and-swap: atomically replace *word with `desired` when it
     * equals `expected`. Returns the previous value. `addr` drives the
     * coherence/cache model.
     */
    OpAwaiter
    atomicCas(std::uint64_t *word, Addr addr, std::uint64_t expected,
              std::uint64_t desired)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::AtomicCas;
        op.word = word;
        op.addr = addr;
        op.a = expected;
        op.b = desired;
        return OpAwaiter{*ctx_};
    }

    /** Fetch-and-add `delta`; returns the previous value. */
    OpAwaiter
    atomicFetchAdd(std::uint64_t *word, Addr addr, std::uint64_t delta)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::AtomicFetchAdd;
        op.word = word;
        op.addr = addr;
        op.a = delta;
        return OpAwaiter{*ctx_};
    }

    /** Atomic swap of `value` into *word; returns the previous value. */
    OpAwaiter
    atomicExchange(std::uint64_t *word, Addr addr, std::uint64_t value)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::AtomicExchange;
        op.word = word;
        op.addr = addr;
        op.a = value;
        return OpAwaiter{*ctx_};
    }

    /** Acquire load; returns the value. */
    OpAwaiter
    atomicLoad(std::uint64_t *word, Addr addr)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::AtomicLoad;
        op.word = word;
        op.addr = addr;
        return OpAwaiter{*ctx_};
    }

    /** Release store of `value`. */
    OpAwaiter
    atomicStore(std::uint64_t *word, Addr addr, std::uint64_t value)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::AtomicStore;
        op.word = word;
        op.addr = addr;
        op.a = value;
        return OpAwaiter{*ctx_};
    }

    /** rdpmc-style userspace read of hardware counter `idx`. */
    OpAwaiter
    pmcRead(unsigned idx)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::PmcRead;
        op.counter = idx;
        return OpAwaiter{*ctx_};
    }

    /** Destructive read-and-clear of counter `idx` (enhancement #2). */
    OpAwaiter
    pmcReadClear(unsigned idx)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::PmcReadClear;
        op.counter = idx;
        return OpAwaiter{*ctx_};
    }

    /** Trap into the kernel. */
    OpAwaiter
    syscall(std::uint32_t nr, std::array<std::uint64_t, 4> args = {})
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::Syscall;
        op.sysNr = nr;
        op.sysArgs = args;
        return OpAwaiter{*ctx_};
    }

    /** Push attribution region `region` (see Machine::regions()). */
    OpAwaiter
    regionEnter(RegionId region)
    {
        PendingOp &op = ctx_->op;
        op.kind = OpKind::RegionEnter;
        op.region = region;
        return OpAwaiter{*ctx_};
    }

    /** Pop the current attribution region. */
    OpAwaiter
    regionExit()
    {
        ctx_->op.kind = OpKind::RegionExit;
        return OpAwaiter{*ctx_};
    }

    /**
     * Declare the straight-line loop this thread is about to run:
     * `body` lists one iteration's ops in issue order, as Compute
     * {instrs, profile}, Load or Store templates. Host-side: issues no
     * op and takes no simulated time. While superblock replay is on,
     * the core then retires matching ops through replay, validating
     * each one; a wrong declaration costs replay, never bytes. Replaces
     * any earlier declaration. Fatal on an empty body or one holding
     * any other op kind.
     */
    void declareLoop(std::initializer_list<LoopOp> body);

    /** @name Host-side (zero-cost) helpers @{ */
    ThreadId tid() const { return ctx_->tid(); }
    const std::string &name() const { return ctx_->name(); }
    Rng &rng() { return ctx_->rng(); }
    GuestContext &context() { return *ctx_; }
    Machine &machine() { return ctx_->machine(); }
    /** True once the machine's requested stop tick has passed. */
    bool shouldStop() const;
    /** Current simulated time on the core this thread last ran on. */
    Tick now() const;
    /** @} */

  private:
    GuestContext *ctx_;
};

} // namespace limit::sim

#endif // LIMIT_SIM_GUEST_HH

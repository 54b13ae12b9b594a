/**
 * @file
 * Decoded-op superblock trace cache for the batched hot path.
 *
 * A superblock is one period of a straight-line, kernel-free guest
 * loop body — a short sequence of core-local Compute/Load/Store ops —
 * decoded once from the live op stream and stored with precomputed
 * per-op validation fields, prefix-summed event totals, and a
 * conservative per-iteration cycle/event upper bound. On later
 * iterations the Cpu *replays* the block: each incoming op is checked
 * against the recorded micro-op (exact operand match for compute,
 * fast-path-hit preconditions for memory) and, when it matches, is
 * retired with a single clock add instead of the full awaiter →
 * tryInlineOp → exec → ledger → PMU pipeline. The deferred event
 * deltas are committed in one Cpu::applyFewEvents call when the
 * replay ends.
 *
 * Exactness contract (see DESIGN.md "Superblock replay"): replay never
 * *predicts* the op stream — the guest coroutine still runs and still
 * computes every address host-side; replay only validates that each op
 * it consumes is bit-identical in effect to what per-op execution
 * would have produced. Any mismatch, horizon limit, pending PMI,
 * possible counter wrap, or active fault plan refuses or ends the
 * replay and falls back to the normal path, so the published tables
 * stay byte-identical with the cache on, off (--no-superblock /
 * LIMITPP_FORCE_NO_SUPERBLOCK), or under the per-op reference loop.
 */

#ifndef LIMIT_SIM_SUPERBLOCK_HH
#define LIMIT_SIM_SUPERBLOCK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/memory_if.hh"
#include "sim/types.hh"

namespace limit::sim {

// Completed by guest.hh; micro-ops only store and compare values.
enum class OpKind : std::uint8_t;

/**
 * One decoded op of a superblock. Validation fields identify the op
 * exactly; the prefix sums let a replay that ends anywhere commit its
 * ledger/PMU deltas in O(1) instead of accumulating per op.
 */
struct MicroOp
{
    OpKind kind{};
    /** Compute: recorded instruction count (validated against the op). */
    std::uint64_t instrs = 0;
    /** Compute: recorded profile (validated bitwise against the op). */
    ComputeProfile profile{};
    /** Compute: instrs * branchFrac, precomputed for the residue step. */
    double branchStep = 0.0;
    /**
     * Residue-independent cycles: the compute base cost (before the
     * mispredict term) or the memory fast-path latency.
     */
    Tick baseCost = 0;

    /** @name Cumulative totals over ops [0, this) of one iteration @{ */
    Tick prefixBase = 0;
    std::uint64_t prefixInstrs = 0;
    std::uint64_t prefixLoads = 0;
    std::uint64_t prefixStores = 0;
    /** @} */
};

/** One formed superblock: decoded ops plus per-iteration invariants. */
struct Superblock
{
    std::vector<MicroOp> ops;

    /** @name Exact per-iteration totals (residue-independent parts) @{ */
    Tick iterBase = 0;
    std::uint64_t iterInstrs = 0;
    std::uint64_t iterLoads = 0;
    std::uint64_t iterStores = 0;
    /** @} */

    /** Number of Load/Store ops per iteration. */
    unsigned numMemOps = 0;
    /** Fast-path latency every memory op was recorded with. */
    Tick memLat = 0;
    /**
     * Conservative upper bound on one iteration's cycles, including
     * the worst-case mispredict penalty term. Never zero.
     */
    Tick maxIterCycles = 1;
    /**
     * Per-event upper bound on one iteration's deltas (dense, indexed
     * by EventType) for the PMU no-wrap entry check.
     */
    std::uint64_t iterUb[numEventTypes] = {};

    /** @name Adaptive control / bookkeeping @{ */
    std::uint64_t replays = 0;
    std::uint32_t failStreak = 0;
    /** Recorded-op count before which entry is not attempted. */
    std::uint64_t dormantUntil = 0;
    /** @} */
};

/** Machine-wide replay statistics (reported via metrics/meta). */
struct SuperblockStats
{
    std::uint64_t blocksFormed = 0;
    /** Successful sbTryEnter calls (replay armed). */
    std::uint64_t entries = 0;
    /** Replays that ran their full planned iteration count. */
    std::uint64_t fullCommits = 0;
    /** Replays ended early by an op mismatch or thread exit. */
    std::uint64_t partialFlushes = 0;
    /** Replays whose very first op already mismatched. */
    std::uint64_t entryMisses = 0;
    /** Ops retired through replay (the numerator of the hit rate). */
    std::uint64_t opsReplayed = 0;
    /** Ops recorded by the detectors (per-thread, summed). */
    std::uint64_t opsRecorded = 0;
    /**
     * Mid-replay slow memory ops bridged without leaving the replay:
     * the span so far was committed, the op ran on the full path, and
     * the same block resumed at the next offset (Cpu::sbStallMem).
     */
    std::uint64_t stallBridges = 0;

    /** @name Entry refusals by reason @{ */
    std::uint64_t refusedFaults = 0;
    std::uint64_t refusedPmi = 0;
    std::uint64_t refusedHorizon = 0;
    std::uint64_t refusedBudget = 0;
    std::uint64_t refusedOverflow = 0;
    std::uint64_t refusedMemView = 0;
    /** @} */
};

/**
 * Live replay cursor, embedded in GuestContext so the awaiter fast
 * path (GuestContext::sbStep) touches one cache line of state.
 * `cur != nullptr` means a replay is in progress.
 */
struct SbReplay
{
    const MicroOp *cur = nullptr;
    const MicroOp *opsBegin = nullptr;
    const MicroOp *opsEnd = nullptr;
    /** Iterations remaining, counting the one in progress. */
    std::uint64_t itersLeft = 0;
    /** Iterations planned at entry. */
    std::uint64_t itersTotal = 0;
    /** Op offset the replay entered at (mid-block resume). */
    std::uint32_t startOffset = 0;

    /**
     * @name Fast-path assumptions, flattened for the per-op check
     *
     * Scalar copies of the FastPeekView fields sbStep touches, laid
     * out here so the check is a handful of one-level loads (the
     * compiler cannot keep them in registers across an opaque
     * suspension point). `pageVal` is the *value* behind peek
     * .lastPage: it only changes inside tlb.access/fill, which never
     * run between two validated ops of a replay (a bridged slow op
     * refreshes it in sbResume), so comparing against the copy is
     * exactly the live-pointer compare. `waysShift` is log2(ways) —
     * entry refuses mem replay for non-power-of-two ways.
     * @{
     */
    bool memAlwaysHit = false;
    unsigned pageShift = 0;
    unsigned lineShift = 0;
    unsigned waysShift = 0;
    std::uint64_t pageVal = 0;
    std::uint64_t setMask = 0;
    const std::uint64_t *mruTags = nullptr;
    /**
     * Last cache line that passed the page + MRU validation. The
     * assumptions above are frozen for the whole span (no access runs
     * between validated ops), so an op on the same line as the
     * previous one is valid by the previous op's check — same line
     * implies same page, and the MRU tags cannot have changed. Reset
     * to the poison value at entry and after every stall bridge (the
     * bridged access mutates the tags).
     */
    std::uint64_t lastGoodLine = ~0ull;
    /** @} */

    /** For sbPendingTicks: the mid-replay exact-time reconstruction. */
    Tick mispredictPenalty = 0;
    /** @name Residue-driven accumulators (everything else is prefix) @{ */
    std::uint64_t accBranches = 0;
    std::uint64_t accMisses = 0;
    /** @} */
    /** Cold copy of the model's fast-path view (resume refresh). */
    FastPeekView peek{};
    Superblock *block = nullptr;
};

/**
 * Per-thread superblock detector: a small ring of recently recorded
 * ops plus a lag-based periodicity screen. An op stream position is a
 * formation candidate when the same op recurred `lag` positions ago
 * (hash table `lastSeen_`) and the last 2·lag ops each matched their
 * lag-distant predecessor exactly; the block is then the most recent
 * period. Non-replayable ops (kernel interaction, slow memory
 * accesses, region markers) reset the screen so a block can never
 * span a discontinuity.
 */
class SuperblockState
{
  public:
    SuperblockState(SuperblockStats *stats, Tick mispredict_penalty)
        : stats_(stats), mispredictPenalty_(mispredict_penalty)
    {
        lastSeen_.fill(~0ull);
    }

    /** Longest loop body (in ops) a superblock may cover. */
    static constexpr unsigned maxPeriod = 16;
    /** Formed blocks kept per thread (round-robin eviction). */
    static constexpr unsigned maxBlocks = 4;

    /**
     * Record one op executed on the normal inline path. A zero
     * `fast_lat` marks a memory op that missed the fast path (not
     * replayable as recorded).
     */
    void record(OpKind kind, std::uint64_t instrs,
                const ComputeProfile &profile, Tick fast_lat);

    /**
     * Gate in front of record(): false while the detector naps.
     * Detection costs a hash, a ring store, and a table update on
     * every inline op, which is pure overhead on op streams that
     * never loop (scheduler-heavy workloads). A thread that records
     * `activeWindow` consecutive ops without periodicity evidence
     * puts its detector to sleep for exponentially growing windows
     * (capped at maxSleep, reset to the first window by any replay
     * commit via noteReplayed), so such workloads pay one decrement
     * per op instead of the full detector. Purely a host-side
     * throttle: replay output is bit-identical, only *when* blocks
     * can form changes.
     */
    bool
    shouldRecord()
    {
        if (sleepLeft_ > 0) {
            --sleepLeft_;
            return false;
        }
        return true;
    }

    /** A replay span committed: detection is paying for itself. */
    void
    noteReplayed()
    {
        idle_ = 0;
        sleepLeft_ = 0;
        backoff_ = firstSleep;
    }

    /** A non-inline op (syscall, atomic, PMC read, ...) ran. */
    void
    noteDiscontinuity()
    {
        candPeriod_ = 0;
        streak_ = 0;
        seq_ = 0;
        consumeHintFreshness();
    }

    /** Armed block whose next expected op has `kind`, if any. */
    Superblock *
    candidateFor(OpKind kind)
    {
        for (unsigned i = 0; i < blockCount_; ++i) {
            Superblock &b = blocks_[i];
            if (b.ops[0].kind == kind && n_ >= b.dormantUntil)
                return &b;
        }
        return nullptr;
    }

    /**
     * Arm the mid-block resume hint: after a partial flush at op
     * `pos - 1`, the op after the mismatch is expected at `pos`. The
     * hint survives exactly one recorded op (the mismatching one).
     */
    void
    armHint(Superblock *block, std::uint32_t pos)
    {
        hintBlock_ = block;
        hintPos_ = pos;
        hintFresh_ = true;
    }

    /** Consume the armed hint (cleared by this call). */
    Superblock *
    takeHint(std::uint32_t &pos)
    {
        Superblock *b = hintBlock_;
        pos = hintPos_;
        hintBlock_ = nullptr;
        return b;
    }

    /** Total ops recorded by this thread (dormancy clock). */
    std::uint64_t recorded() const { return n_; }

    SuperblockStats &stats() { return *stats_; }

  private:
    static constexpr unsigned histSize = 64; // power of two, > 2*maxPeriod

    struct Rec
    {
        MicroOp op;
        std::uint64_t fp = 0;
    };

    /** Keep the hint through the one op recorded right after a flush. */
    bool
    consumeHintFreshness()
    {
        const bool fresh = hintFresh_;
        hintFresh_ = false;
        if (!fresh)
            hintBlock_ = nullptr;
        return fresh;
    }

    /** One more op without periodicity evidence; maybe start a nap. */
    void
    noteIdle()
    {
        if (++idle_ >= activeWindow) {
            sleepLeft_ = backoff_;
            backoff_ = backoff_ < maxSleep ? backoff_ * 2 : maxSleep;
            idle_ = 0;
        }
    }

    void tryForm();

    /** @name Detector nap state (see shouldRecord) @{ */
    static constexpr std::uint64_t activeWindow = 4096;
    static constexpr std::uint64_t firstSleep = 4096;
    static constexpr std::uint64_t maxSleep = 1u << 20;
    std::uint64_t idle_ = 0;
    std::uint64_t sleepLeft_ = 0;
    std::uint64_t backoff_ = firstSleep;
    /** @} */

    SuperblockStats *stats_;
    Tick mispredictPenalty_;

    std::array<Rec, histSize> hist_{};
    /** Ops recorded since thread start (ring write position). */
    std::uint64_t n_ = 0;
    /** Contiguous replayable ops since the last discontinuity. */
    std::uint64_t seq_ = 0;
    /** fp-hash slot → last op index with that hash. */
    std::array<std::uint64_t, 64> lastSeen_;
    unsigned candPeriod_ = 0;
    unsigned streak_ = 0;

    std::array<Superblock, maxBlocks> blocks_{};
    unsigned blockCount_ = 0;
    unsigned nextEvict_ = 0;

    Superblock *hintBlock_ = nullptr;
    std::uint32_t hintPos_ = 0;
    bool hintFresh_ = false;
};

} // namespace limit::sim

#endif // LIMIT_SIM_SUPERBLOCK_HH

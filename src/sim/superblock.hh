/**
 * @file
 * Superblock replay of declared guest loops on the batched hot path.
 *
 * A superblock is one period of a straight-line, kernel-free guest
 * loop body — a short sequence of core-local Compute/Load/Store ops —
 * that guest code declares up front (Guest::declareLoop). It is
 * decoded once into per-op validation fields, prefix-summed event
 * totals, and a conservative per-iteration cycle/event upper bound.
 * While the thread runs, the Cpu *replays* the block: each incoming
 * op is checked against the declared micro-op (exact operand match
 * for compute, fast-path-hit preconditions for memory) and, when it
 * matches, is retired by advancing the replay cursor instead of the
 * full awaiter → tryInlineOp → exec → ledger → PMU pipeline. A load
 * or store that fails the fast-path check does not end the replay:
 * it runs through the full memory model on the spot
 * (Cpu::sbFullAccess), and the cursor keeps its latency and miss
 * events. The deferred event deltas are committed in one
 * Cpu::applyEvents call when the replay ends.
 *
 * Exactness contract (see DESIGN.md "Superblock replay"): replay never
 * *predicts* the op stream — the guest coroutine still runs and still
 * computes every address host-side; replay only validates that each op
 * it consumes is bit-identical in effect to what per-op execution
 * would have produced. Any mismatch, horizon limit, pending PMI,
 * possible counter wrap, or active fault plan refuses or ends the
 * replay and falls back to the normal path, so a wrong declaration
 * costs replay, never bytes: the published tables stay byte-identical
 * under the per-op reference loop (LIMITPP_FORCE_NO_BATCH), which
 * never replays. A run that should not replay a loop simply does not
 * declare it.
 */

#ifndef LIMIT_SIM_SUPERBLOCK_HH
#define LIMIT_SIM_SUPERBLOCK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/memory_if.hh"
#include "sim/types.hh"

namespace limit::sim {

// Completed by guest.hh; micro-ops only store and compare values.
enum class OpKind : std::uint8_t;

/**
 * One op template of a declared loop body (Guest::declareLoop): a
 * Compute with its instruction count and profile, or a Load/Store
 * (whose address the guest supplies per iteration).
 */
struct LoopOp
{
    OpKind kind{};
    /** Compute: instruction count. */
    std::uint64_t instrs = 0;
    /** Compute: profile (`ComputeProfile{}` is what compute(n) issues). */
    ComputeProfile profile{};
};

/**
 * One decoded op of a superblock. Validation fields identify the op
 * exactly; the prefix sums let a replay that ends anywhere commit its
 * ledger/PMU deltas in O(1) instead of accumulating per op.
 */
struct MicroOp
{
    OpKind kind{};
    /** Compute: declared instruction count (validated against the op). */
    std::uint64_t instrs = 0;
    /** Compute: declared profile (validated bitwise against the op). */
    ComputeProfile profile{};
    /** Compute: instrs * branchFrac, precomputed for the residue step. */
    double branchStep = 0.0;
    /**
     * Residue-independent cycles: the compute base cost (before the
     * mispredict term) or the memory fast-path latency (the commit
     * re-costs memory ops that took the full path).
     */
    Tick baseCost = 0;

    /** @name Cumulative totals over ops [0, this) of one iteration @{ */
    Tick prefixBase = 0;
    std::uint64_t prefixInstrs = 0;
    std::uint64_t prefixLoads = 0;
    std::uint64_t prefixStores = 0;
    /** @} */
};

/** One declared superblock: decoded ops plus per-iteration invariants. */
struct Superblock
{
    /**
     * Decode `body` (Compute/Load/Store templates only, non-empty)
     * against the memory model's view `mem`: prefix sums cost every
     * memory op at its fast-path latency, the upper bounds at its
     * worst plain access.
     */
    Superblock(std::span<const LoopOp> body, const FastPeekView &mem,
               Tick mispredict_penalty);

    std::vector<MicroOp> ops;

    /** @name Exact per-iteration totals (residue-independent parts) @{ */
    Tick iterBase = 0;
    std::uint64_t iterInstrs = 0;
    std::uint64_t iterLoads = 0;
    std::uint64_t iterStores = 0;
    /** @} */

    /** Number of Load/Store ops per iteration. */
    unsigned numMemOps = 0;
    /** Fast-path latency every memory op was declared with. */
    Tick memLat = 0;
    /** Worst-case plain-access latency it was declared with. */
    Tick memMaxLat = 0;
    /**
     * Conservative upper bound on one iteration's cycles: every
     * memory op at memMaxLat (any of them may take the full path)
     * plus the worst-case mispredict penalty term. Zero only for a
     * body that costs nothing; Guest::declareLoop keeps no such block.
     */
    Tick maxIterCycles = 0;
    /**
     * Per-event upper bound on one iteration's deltas (dense, indexed
     * by EventType) for the PMU no-wrap entry check: one of each miss
     * event per memory op (MemoryIf::access's bound) on top of the
     * exact totals.
     */
    std::uint64_t iterUb[numEventTypes] = {};
};

/** Machine-wide replay statistics (reported via metrics/meta). */
struct SuperblockStats
{
    /** Successful sbTryEnter calls (replay armed). */
    std::uint64_t entries = 0;
    /** Replays that ran their full planned iteration count. */
    std::uint64_t fullCommits = 0;
    /** Replays ended early by an op mismatch or thread exit. */
    std::uint64_t partialFlushes = 0;
    /**
     * Ops retired through replay that passed the fast check (the
     * numerator of the hit rate); stallBridges counts the rest.
     */
    std::uint64_t opsReplayed = 0;
    /**
     * Always 0: loops are declared, not recorded. Kept because
     * limitbench/driver/jobs.cc still reads it.
     */
    std::uint64_t opsRecorded = 0;
    /**
     * Memory ops a replay ran through the full memory model inside
     * its span (Cpu::sbFullAccess). limitbench/driver/jobs.cc reads
     * the field under this name.
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

    /**
     * @name Fast-path assumptions, flattened for the per-op check
     *
     * Scalar copies of the FastPeekView fields sbStep touches, laid
     * out here so the check is a handful of one-level loads (the
     * compiler cannot keep them in registers across an opaque
     * suspension point). `pageVal` is the *value* behind the view's
     * lastPage: it only changes inside the TLB's access, which runs
     * mid-replay only in a full access, after which sbFullAccess
     * re-reads it, so comparing against the copy is exactly the
     * live-pointer compare. `waysShift` is log2(ways) — entry refuses
     * mem replay for non-power-of-two ways.
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
     * assumptions above hold between two full accesses (nothing else
     * touches the model mid-span), so an op on the same line as the
     * previous one is valid by the previous op's check — same line
     * implies same page, and the MRU tags cannot have changed. Reset
     * to the poison value at entry and after every full access (which
     * mutates the tags).
     */
    std::uint64_t lastGoodLine = ~0ull;
    /** @} */

    /** For sbPendingTicks: the mid-replay exact-time reconstruction. */
    Tick mispredictPenalty = 0;
    /** @name Residue-driven accumulators (everything else is prefix) @{ */
    std::uint64_t accBranches = 0;
    std::uint64_t accMisses = 0;
    /** @} */
    /**
     * @name Memory ops that failed the fast check (Cpu::sbFullAccess)
     *
     * Their summed latency and miss events, which the commit applies
     * in place of the fast-path latency the prefix sums assumed, and
     * the memory ops already handed to the model (fast hits credited
     * plus full accesses), so each credit covers only the fast hits
     * since the last one.
     * @{
     */
    std::uint64_t fullOps = 0;
    Tick fullTicks = 0;
    std::uint64_t memCredited = 0;
    EventDeltas fullDeltas{};
    /** @} */
    const Superblock *block = nullptr;
};

} // namespace limit::sim

#endif // LIMIT_SIM_SUPERBLOCK_HH

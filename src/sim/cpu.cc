#include "sim/cpu.hh"

#include <bit>
#include <cstddef>

#include "fault/controller.hh"
#include "sim/cost_model.hh"
#include "sim/kernel_if.hh"
#include "sim/machine.hh"
#include "sim/memory_if.hh"
#include "trace/trace.hh"

namespace limit::sim {

Cpu::Cpu(CoreId id, Machine &machine, unsigned pmu_counters,
         const PmuFeatures &pmu_features)
    : id_(id), machine_(machine), pmu_(pmu_counters, pmu_features),
      sbStats_(machine.superblockStats()), work_(machine.work())
{
    pendingPmis_.reserve(2 * maxPmuCounters);
}

void
Cpu::setCurrent(GuestContext *ctx)
{
    current_ = ctx;
    if (ctx)
        ctx->lastCore = id_;
}

void
Cpu::syncTimeAtLeast(Tick t)
{
    if (t > now_)
        now_ = t;
}

void
Cpu::step()
{
    panic_if(!current_, "Cpu::step on an idle core");
    GuestContext &ctx = *current_;
    ctx.hasOp = false;
    ctx.resumeHandle().resume();

    if (!ctx.hasOp) {
        panic_if(!ctx.finished(),
                 "guest thread '", ctx.name(),
                 "' suspended without issuing an op");
        machine_.kernel()->threadExited(*this, ctx);
        drainOverflows();
        return;
    }
    executeOp(ctx);
}

void
Cpu::snapshotFastPeek()
{
    sbPeek_ = machine_.memory()->fastPeekView(id_);
}

void
Cpu::setTimelineLane(TimelineLane *lane, Tick interval_ticks)
{
    tlLane_ = lane;
    if (lane == nullptr) {
        tlInterval_ = 0;
        tlNextBoundary_ = maxTick;
        return;
    }
    fatal_if(interval_ticks == 0,
             "Cpu::setTimelineLane: interval must be > 0");
    tlInterval_ = interval_ticks;
    lane->curIndex = now_ / interval_ticks;
    tlNextBoundary_ = (lane->curIndex + 1) * interval_ticks;
}

void
Cpu::tlRoll()
{
    tlLane_->flush();
    tlLane_->curIndex = now_ / tlInterval_;
    tlNextBoundary_ = (tlLane_->curIndex + 1) * tlInterval_;
}

Cpu::BatchResult
Cpu::runUntil(Tick bound, Tick poll_at, Tick hard_limit,
              unsigned max_ops)
{
    BatchResult r;
    batchBound_ = bound;
    batchPollAt_ = poll_at;
    batchHardLimit_ = hard_limit;
    batchOpsLeft_ = max_ops;
    panic_if(now_ > hard_limit,
             "runaway simulation: core ", id_,
             " passed the hard limit at tick ", now_);
    GuestContext &ctx = *current_;
    ctx.hasOp = false;
    ctx.opConsumedInline = false;
    // Let the guest's co_await points feed core-local ops straight
    // into tryInlineOp while the budget lasts; the resume comes back
    // only for an op that needs a scheduler round (published in
    // ctx.op), a deferred epilogue, an ended batch, or exit.
    ctx.inlineCpu = this;
    ctx.resumeHandle().resume();
    ctx.inlineCpu = nullptr;

    if (ctx.hasOp) {
        // tryInlineOp handed the op back: it is cross-core visible, or
        // the bound, poll deadline or budget was already reached. Run
        // it as a classic round; either way the round ends with it.
        --batchOpsLeft_;
        kernelRound_ = false;
        executeOp(ctx);
        // A timer tick, PMI, or syscall re-entered the kernel: the
        // schedule (busy set, other cores' clocks, poll hint) may have
        // changed under us.
        r.interacted = kernelRound_;
    } else if (ctx.finished()) {
        if (ctx.sbr.cur != nullptr) {
            // The loop's last iterations replayed and then the guest
            // ran off the end: commit before the kernel reads the exit
            // ledger.
            sbCommitReplay(ctx, /*partial=*/true);
        }
        if (batchOpsLeft_ > 0)
            --batchOpsLeft_; // the exiting resume was a round
        machine_.kernel()->threadExited(*this, ctx);
        drainOverflows();
        r.interacted = true;
    } else {
        panic_if(!ctx.opConsumedInline,
                 "guest thread '", ctx.name(),
                 "' suspended without issuing an op");
        ctx.opConsumedInline = false;
        if (epiloguePending_) {
            // tryInlineOp's last op queued a PMI or crossed the
            // quantum; replay executeOp's epilogue now that the
            // coroutine is suspended (it may context-switch).
            epiloguePending_ = false;
            kernelRound_ = false;
            opEpilogue();
            r.interacted = kernelRound_;
        }
    }
    r.ops = max_ops - batchOpsLeft_;
    batchOpsLeft_ = 0;
    return r;
}

bool
Cpu::tryInlineOp(GuestContext &ctx)
{
    bool flushed = false;
    if (ctx.sbr.cur != nullptr) [[unlikely]] {
        // sbStep rejected this op: commit the iterations that did
        // replay, then run the op on the normal path below. No
        // re-entry is attempted for this op: it just failed to match.
        sbCommitReplay(ctx, /*partial=*/true);
        flushed = true;
    }
    // Past the bound, the poll deadline or the budget, refuse: the op
    // goes down the suspend path and runUntil executes it as the
    // round's only op. (Only a round's first op can get here:
    // continueInline ends the batch once any limit is reached.)
    if (batchOpsLeft_ == 0 || now_ >= batchBound_ || now_ >= batchPollAt_)
        return false;
    panic_if(now_ > batchHardLimit_,
             "runaway simulation: core ", id_,
             " passed the hard limit at tick ", now_);

    const PendingOp &op = ctx.op;
    // A declared loop is entered at its first op whenever this op's
    // kind matches it; sbStep validates the rest. A thread that
    // declared nothing pays this one null test.
    const Superblock *loop = ctx.loop.get();
    if (loop != nullptr && !flushed && loop->ops[0].kind == op.kind &&
        sbTryEnter(ctx, *loop)) {
        if (ctx.sbStep())
            return true;
        if (ctx.opConsumedInline)
            return false; // single-op replay ended the batch
        // The entry op's operands did not match the declaration: drop
        // the empty replay (nothing to commit) and fall through.
        sbCommitReplay(ctx, /*partial=*/true);
    }
    switch (op.kind) {
      case OpKind::Compute:
        execCompute(ctx, op);
        break;
      case OpKind::Load:
      case OpKind::Store:
        execMemory(ctx, op);
        break;
      case OpKind::RegionEnter:
      case OpKind::RegionExit:
        execRegion(ctx, op);
        break;
      default:
        return false; // cross-core-visible: scheduler round
    }
    --batchOpsLeft_;
    return continueInline(ctx);
}

bool
Cpu::continueInline(GuestContext &ctx)
{
    if (!pendingPmis_.empty() || now_ >= quantumEnd) {
        // The drain/timer epilogue can switch threads, which is only
        // safe with this coroutine suspended; hand back to runUntil.
        epiloguePending_ = true;
        ctx.opConsumedInline = true;
        return false;
    }
    if (now_ >= batchBound_ || now_ >= batchPollAt_ || batchOpsLeft_ == 0) {
        ctx.opConsumedInline = true;
        return false;
    }
    return true;
}

void
Cpu::opEpilogue()
{
    drainOverflows();
    if (current_ && now_ >= quantumEnd) {
        kernelRound_ = true;
        machine_.kernel()->timerTick(*this);
        drainOverflows();
    }
}

void
Cpu::executeOp(GuestContext &ctx)
{
    // No copy: ctx.op is stable for the whole handler — guest
    // coroutines (the only writers) never resume inside one. Handlers
    // that re-enter the kernel before their last read of an op field
    // still take scalar copies of what they need up front.
    const PendingOp &op = ctx.op;

    switch (op.kind) {
      case OpKind::Compute:
        execCompute(ctx, op);
        break;
      case OpKind::Load:
      case OpKind::Store:
        execMemory(ctx, op);
        break;
      case OpKind::AtomicCas:
      case OpKind::AtomicFetchAdd:
      case OpKind::AtomicExchange:
      case OpKind::AtomicLoad:
      case OpKind::AtomicStore:
        execAtomic(ctx, op);
        break;
      case OpKind::PmcRead:
      case OpKind::PmcReadClear:
        execPmcRead(ctx, op);
        break;
      case OpKind::Syscall:
        execSyscall(ctx, op);
        break;
      case OpKind::RegionEnter:
      case OpKind::RegionExit:
        execRegion(ctx, op);
        break;
      default:
        panic("unknown op kind");
    }
    opEpilogue();
}

void
Cpu::execCompute(GuestContext &ctx, const PendingOp &op)
{
    const ComputeProfile &p = op.profile;
    const std::uint64_t instrs = op.instrs;

    // Deterministic fractional-event accounting: carry residues so
    // that long-run branch counts match instrs * branchFrac exactly.
    // The zero-rate cases reduce to exact identities (the residue is
    // always < 1, so the truncated count is 0 and the residue is
    // unchanged); skip the floating-point work on those paths.
    std::uint64_t branches = 0;
    if (p.branchFrac != 0.0) {
        const double branches_f = static_cast<double>(instrs) *
                                      p.branchFrac +
                                  ctx.branchResidue;
        branches = static_cast<std::uint64_t>(branches_f);
        ctx.branchResidue = branches_f - static_cast<double>(branches);
    }

    std::uint64_t misses = 0;
    if (branches != 0 && p.mispredictRate != 0.0) {
        const double miss_f = static_cast<double>(branches) *
                                  p.mispredictRate +
                              ctx.mispredictResidue;
        misses = static_cast<std::uint64_t>(miss_f);
        ctx.mispredictResidue = miss_f - static_cast<double>(misses);
    }

    // One cycle per instruction, plus the mispredict penalties.
    const Tick duration = instrs + misses * mispredictPenalty;

    const SparseDelta d[4] = {{EventType::Cycles, duration},
                              {EventType::Instructions, instrs},
                              {EventType::Branches, branches},
                              {EventType::BranchMisses, misses}};
    applyFewEvents(PrivMode::User, d);
    now_ += duration;
    ctx.result = 0;
}

void
Cpu::execMemory(GuestContext &ctx, const PendingOp &op)
{
    const bool write = op.kind == OpKind::Store;

    // All-hit accesses (the common case on streaming patterns) carry
    // exactly three events; skip the dense-deltas machinery for them.
    ++work_.fastTries;
    const Tick fast = machine_.memory()->tryFastAccess(id_, op.addr,
                                                       write);
    if (fast != 0) {
        ++work_.fastHits;
        const SparseDelta d[3] = {
            {EventType::Cycles, fast},
            {EventType::Instructions, 1},
            {write ? EventType::Stores : EventType::Loads, 1}};
        applyFewEvents(PrivMode::User, d);
        now_ += fast;
        ctx.result = 0;
        return;
    }

    EventDeltas d;
    ++work_.accessCalls;
    const Tick latency =
        machine_.memory()->access(id_, op.addr, write, false, d);

    d[EventType::Cycles] += latency;
    d[EventType::Instructions] += 1;
    d[write ? EventType::Stores : EventType::Loads] += 1;
    applyEvents(PrivMode::User, d);
    now_ += latency;
    ctx.result = 0;
}

void
Cpu::execAtomic(GuestContext &ctx, const PendingOp &op)
{
    panic_if(op.word == nullptr, "atomic op without host storage");
    EventDeltas d;
    ++work_.accessCalls;
    const Tick latency = machine_.memory()->access(id_, op.addr,
                                                   /*write=*/true,
                                                   /*atomic=*/true, d);
    d[EventType::Cycles] += latency;
    d[EventType::Instructions] += 1;
    d[EventType::Loads] += 1;

    std::uint64_t result = 0;
    switch (op.kind) {
      case OpKind::AtomicCas: {
        const std::uint64_t old = *op.word;
        if (old == op.a) {
            *op.word = op.b;
            d[EventType::Stores] += 1;
        }
        result = old;
        break;
      }
      case OpKind::AtomicFetchAdd: {
        const std::uint64_t old = *op.word;
        *op.word = old + op.a;
        d[EventType::Stores] += 1;
        result = old;
        break;
      }
      case OpKind::AtomicExchange: {
        const std::uint64_t old = *op.word;
        *op.word = op.a;
        d[EventType::Stores] += 1;
        result = old;
        break;
      }
      case OpKind::AtomicLoad:
        result = *op.word;
        break;
      case OpKind::AtomicStore:
        *op.word = op.a;
        d[EventType::Stores] += 1;
        break;
      default:
        panic("non-atomic op in execAtomic");
    }

    applyEvents(PrivMode::User, d);
    now_ += latency;
    ctx.result = result;
}

void
Cpu::execPmcRead(GuestContext &ctx, const PendingOp &op)
{
    const unsigned counter = op.counter;
    const bool clear = op.kind == OpKind::PmcReadClear;
    fatal_if(counter >= pmu_.numCounters(),
             "rdpmc of nonexistent counter ", counter);

    // Charge the read cost *before* sampling the counter value: the
    // value architecturally reflects the moment the rdpmc retires, so
    // events generated by the read itself (cycles, the instruction)
    // are visible in it — and so is any overflow they trigger. This
    // ordering is what makes the accumulate-then-rdpmc race of naive
    // userspace reads reproducible (see pec/).
    EventDeltas d;
    d[EventType::Cycles] = rdpmcCost;
    d[EventType::Instructions] = 1;
    applyEvents(PrivMode::User, d);
    now_ += rdpmcCost;

    // Deliver any overflow the read itself produced before the value
    // is observed, mirroring a PMI that hits during the instruction.
    drainOverflows();

    ctx.result = clear ? pmu_.readAndClear(counter) : pmu_.read(counter);
}

void
Cpu::execSyscall(GuestContext &ctx, const PendingOp &op)
{
    const std::uint32_t nr = op.sysNr;
    const std::array<std::uint64_t, 4> args = op.sysArgs;
    kernelRound_ = true;

    // The syscall instruction itself.
    EventDeltas d;
    d[EventType::Cycles] = 2;
    d[EventType::Instructions] = 1;
    applyEvents(PrivMode::User, d);
    now_ += 2;

    // Trap entry + eventual return are charged up front to keep the
    // accounting attached to the calling thread even when the handler
    // blocks it and switches away (see DESIGN.md).
    kernelWork(trapEntryCost + trapExitCost);

    SyscallOutcome out = machine_.kernel()->syscall(*this, ctx, nr, args);
    if (!out.blocked)
        ctx.result = out.value;
}

void
Cpu::execRegion(GuestContext &ctx, const PendingOp &op)
{
    EventDeltas d;
    d[EventType::Cycles] = 2;
    d[EventType::Instructions] = 2;
    applyEvents(PrivMode::User, d);
    now_ += 2;

    ctx.prevRegion = ctx.currentRegion();
    ctx.regionChangedAt = now_;
    if (op.kind == OpKind::RegionEnter) {
        ctx.regionStack.push_back(op.region);
    } else {
        panic_if(ctx.regionStack.empty(),
                 "regionExit with empty region stack in thread '",
                 ctx.name(), "'");
        ctx.regionStack.pop_back();
    }
    ctx.result = 0;
}

void
Cpu::kernelWork(Tick cycles)
{
    if (cycles == 0)
        return;
    const double instr_f =
        static_cast<double>(cycles) * kernelIpc +
        kernelInstrResidue_;
    const auto instrs = static_cast<std::uint64_t>(instr_f);
    kernelInstrResidue_ = instr_f - static_cast<double>(instrs);

    EventDeltas d;
    d[EventType::Cycles] = cycles;
    d[EventType::Instructions] = instrs;
    applyEvents(PrivMode::Kernel, d);
    now_ += cycles;
}

void
Cpu::drainOverflowsSlow()
{
    if (draining_)
        return; // the outer drain loop will pick up new PMIs
    draining_ = true;
    kernelRound_ = true;
    unsigned guard = 0;
    // Index scan instead of front-pop: a fault controller may hold a
    // PMI back (notBefore in the future) while later ones deliver, and
    // each delivery can queue new PMIs, so restart from 0 after one.
    std::size_t i = 0;
    while (i < pendingPmis_.size()) {
        // Indexed, never held across the fault hook: the vector may
        // grow past its reservation and move.
        if (!pendingPmis_[i].vetted) {
            pendingPmis_[i].vetted = true;
            if (fault::FaultController *f = machine_.faults()) {
                const fault::PmiAction act =
                    f->onPmiDeliver(*this, pendingPmis_[i].counter,
                                    pendingPmis_[i].wraps);
                if (act.drop) {
                    pendingPmis_.erase(pendingPmis_.begin() +
                                       static_cast<std::ptrdiff_t>(i));
                    continue;
                }
                if (act.delay > 0)
                    pendingPmis_[i].notBefore = now_ + act.delay;
            }
        }
        const PendingPmi pmi = pendingPmis_[i];
        if (pmi.notBefore > now_) {
            ++i; // still held back; look at later arrivals
            continue;
        }
        panic_if(++guard > 256,
                 "PMI storm: overflow handler keeps re-overflowing "
                 "(counter width too small for the handler cost?)");
        pendingPmis_.erase(pendingPmis_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        LIMIT_TRACE(machine_.tracer(), id_,
                    trace::TraceEvent::CounterOverflow, now_,
                    current_ ? current_->tid() : invalidThread,
                    pmi.counter, pmi.wraps);
        machine_.kernel()->pmuOverflow(*this, pmi.counter, pmi.wraps);
        i = 0;
    }
    draining_ = false;
}

// ---------------------------------------------------------------------
// Superblock replay (see sim/superblock.hh and DESIGN.md)
// ---------------------------------------------------------------------

bool
Cpu::sbTryEnter(GuestContext &ctx, const Superblock &block)
{
    SuperblockStats &stats = sbStats_;
    // A fault plan can trigger on any op's seams; replay would skip
    // its probe points. Refuse outright while any controller is
    // attached — fault runs are diagnostics, not throughput runs.
    if (machine_.faults() != nullptr) {
        ++stats.refusedFaults;
        return false;
    }
    // A pending PMI must be delivered at the next op boundary.
    if (!pendingPmis_.empty()) {
        ++stats.refusedPmi;
        return false;
    }
    SbReplay &r = ctx.sbr;
    if (block.numMemOps > 0) {
        // Model swapped or reconfigured since the declaration (memLat
        // is nonzero by declaration; the bounds assume memMaxLat), or
        // a geometry the shift-based set indexing can't express.
        if (sbPeek_.latency != block.memLat ||
            sbPeek_.maxLatency != block.memMaxLat ||
            (!sbPeek_.alwaysHit &&
             (sbPeek_.ways & (sbPeek_.ways - 1)) != 0)) {
            ++stats.refusedMemView;
            return false;
        }
        r.memAlwaysHit = sbPeek_.alwaysHit;
        if (!sbPeek_.alwaysHit) {
            r.pageShift = sbPeek_.pageShift;
            r.lineShift = sbPeek_.lineShift;
            r.waysShift = static_cast<unsigned>(
                std::countr_zero(sbPeek_.ways));
            r.pageVal = *sbPeek_.lastPage;
            r.setMask = sbPeek_.setMask;
            r.mruTags = sbPeek_.mruTags;
            r.lastGoodLine = ~0ull;
        }
    }
    // Every replayed op must land strictly below the batch bound, the
    // poll deadline and the quantum end (so per-op execution would
    // also have run the whole span back to back on this core), and at
    // or below the hard limit.
    Tick lim = batchBound_;
    if (batchPollAt_ < lim)
        lim = batchPollAt_;
    if (quantumEnd < lim)
        lim = quantumEnd;
    if (tlLane_ != nullptr) [[unlikely]] {
        // Timeline slices must be bit-identical to per-op execution,
        // where each op's events land in the slice holding its start
        // time. A replayed span commits all its events at the span's
        // *end*, so the span must not cross a slice boundary: bounding
        // lim keeps spanEnd <= lim - 1 < boundary (maxIterCycles
        // upper-bounds each iteration, so `avail` below holds for the
        // whole span). The cached boundary can be stale — the clock
        // advanced past it after the last apply — so roll first.
        if (now_ >= tlNextBoundary_)
            tlRoll();
        if (tlNextBoundary_ < lim)
            lim = tlNextBoundary_;
    }
    // Compared without subtracting: the quantum end can already lie
    // behind the clock (a woken thread is charged its switch-in cost
    // after the kernel set quantumEnd), and `lim - now_` would wrap.
    if (lim <= now_ + 1) {
        ++stats.refusedHorizon;
        return false;
    }
    Tick avail = lim - now_ - 1;
    if (batchHardLimit_ - now_ < avail)
        avail = batchHardLimit_ - now_;
    // The op budget (≤ max_ops per round) is almost always the binding
    // bound, so start there and confirm the others with multiplies;
    // the exact divisions only run when a bound actually binds.
    const std::uint32_t size = static_cast<std::uint32_t>(block.ops.size());
    std::uint64_t iters = batchOpsLeft_ / size;
    if (iters == 0) {
        ++stats.refusedBudget;
        return false;
    }
    // Size the replay to the worst case: maxIterCycles bounds one
    // iteration's cycles from above, so `iters` full iterations are
    // guaranteed to fit whatever the residues do.
    if (static_cast<unsigned __int128>(block.maxIterCycles) * iters >
        avail) {
        iters = avail / block.maxIterCycles;
        if (iters == 0) {
            ++stats.refusedHorizon;
            return false;
        }
    }
    // No active counter may wrap inside the replay: wraps raise PMIs
    // at op granularity, which the one-shot commit could not time.
    if (!pmu_.fitsWithoutWrap(PrivMode::User, block.iterUb, iters)) {
        const std::uint64_t byWrap =
            pmu_.noWrapIterBound(PrivMode::User, block.iterUb);
        if (byWrap == 0) {
            ++stats.refusedOverflow;
            return false;
        }
        if (byWrap < iters)
            iters = byWrap;
    }
    r.opsBegin = block.ops.data();
    r.opsEnd = r.opsBegin + block.ops.size();
    r.cur = r.opsBegin;
    r.itersTotal = iters;
    r.itersLeft = iters;
    r.accBranches = 0;
    r.accMisses = 0;
    r.fullOps = 0;
    r.fullTicks = 0;
    r.memCredited = 0;
    r.fullDeltas = {};
    r.block = &block;
    // Replayable ops all produce a zero result; publish it once.
    ctx.result = 0;
    ++stats.entries;
    return true;
}

void
Cpu::sbFullAccess(GuestContext &ctx)
{
    SbReplay &r = ctx.sbr;
    const Superblock &b = *r.block;
    // Credit the fast hits retired since the previous full access
    // first: per-op execution touched the DTLB's most recent page for
    // each of them before this access could demote or evict it.
    const std::uint64_t memBefore =
        (r.itersTotal - r.itersLeft) * (b.iterLoads + b.iterStores) +
        r.cur->prefixLoads + r.cur->prefixStores;
    if (memBefore > r.memCredited)
        machine_.memory()->creditFastAccesses(id_, memBefore - r.memCredited);
    r.memCredited = memBefore + 1;
    ++work_.accessCalls;
    r.fullTicks += machine_.memory()->access(
        id_, ctx.op.addr, ctx.op.kind == OpKind::Store, false, r.fullDeltas);
    ++r.fullOps;
    // The access may have moved the TLB's most recent page and the
    // L1 MRU tags the validation reads.
    r.pageVal = *sbPeek_.lastPage;
    r.lastGoodLine = ~0ull;
}

void
superblockFullAccess(GuestContext &ctx) noexcept
{
    ctx.inlineCpu->sbFullAccess(ctx);
}

void
Cpu::sbCommitReplay(GuestContext &ctx, bool partial)
{
    SbReplay &r = ctx.sbr;
    const Superblock &b = *r.block;
    SuperblockStats &stats = sbStats_;
    const std::uint64_t fullIters = r.itersTotal - r.itersLeft;
    const MicroOp &cur = *r.cur;
    const std::uint64_t ops = fullIters * b.ops.size() +
                              static_cast<std::uint64_t>(r.cur - r.opsBegin);
    const Tick cycles = ctx.sbPendingTicks();
    r.cur = nullptr;
    r.block = nullptr;
    if (ops == 0)
        return; // armed, but the very first op already mismatched

    // O(1) commit: everything except the residue-driven branch terms
    // and the full accesses is a prefix sum over `ops` (fullIters
    // whole iterations plus the partial one up to `cur`).
    const std::uint64_t loads = fullIters * b.iterLoads + cur.prefixLoads;
    const std::uint64_t stores = fullIters * b.iterStores + cur.prefixStores;
    // Deferred clock: sbStep does not advance the core clock per op;
    // the whole span lands here (mid-replay readers reconstruct the
    // exact time via GuestContext::sbPendingTicks).
    now_ += cycles;
    EventDeltas &d = r.fullDeltas;
    d[EventType::Cycles] += cycles;
    d[EventType::Instructions] +=
        fullIters * b.iterInstrs + cur.prefixInstrs;
    d[EventType::Loads] += loads;
    d[EventType::Stores] += stores;
    d[EventType::Branches] += r.accBranches;
    d[EventType::BranchMisses] += r.accMisses;
    // sbTryEnter sized the replay so no counter can wrap: this apply
    // queues no PMIs, making the one-shot fold exact.
    applyEvents(PrivMode::User, d);
    if (loads + stores > r.memCredited) {
        machine_.memory()->creditFastAccesses(
            id_, loads + stores - r.memCredited);
    }
    batchOpsLeft_ -= static_cast<unsigned>(ops);

    stats.opsReplayed += ops - r.fullOps;
    stats.stallBridges += r.fullOps;
    if (partial)
        ++stats.partialFlushes;
    else
        ++stats.fullCommits;
}

bool
Cpu::sbFinishReplay(GuestContext &ctx)
{
    // The final op of the final iteration just retired: wrap the
    // cursor so the commit sees `itersTotal` whole iterations.
    ctx.sbr.cur = ctx.sbr.opsBegin;
    ctx.sbr.itersLeft = 0;
    sbCommitReplay(ctx, /*partial=*/false);
    // The replay was sized to stay inside every horizon, but it may
    // have consumed the whole op budget or landed exactly on a
    // boundary.
    return continueInline(ctx);
}

bool
superblockFinishReplay(GuestContext &ctx) noexcept
{
    return ctx.inlineCpu->sbFinishReplay(ctx);
}

} // namespace limit::sim

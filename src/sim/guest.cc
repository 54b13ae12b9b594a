#include "sim/guest.hh"

#include "sim/machine.hh"

namespace limit::sim {

GuestContext::GuestContext(Machine &machine, ThreadId tid, std::string name,
                           std::uint64_t seed)
    : machine_(machine), tid_(tid), name_(std::move(name)), rng_(seed)
{
}

GuestContext::~GuestContext() = default;

void
GuestContext::start(std::function<Task<void>(Guest &)> body)
{
    panic_if(started_, "GuestContext::start called twice");
    // Both the Guest handle and the functor (whose captures the
    // coroutine frame references) must outlive the coroutine.
    bodyFn_ = std::move(body);
    guest_ = std::make_unique<Guest>(*this);
    body_ = bodyFn_(*guest_);
    started_ = true;
}

bool
OpAwaiter::inlineExec() const noexcept
{
    return ctx_->inlineCpu->tryInlineOp(*ctx_);
}

void
Guest::declareLoop(std::initializer_list<LoopOp> body)
{
    GuestContext &c = *ctx_;
    fatal_if(body.size() == 0, "declareLoop: empty loop body in thread '",
             c.name(), "'");
    for (const LoopOp &op : body) {
        fatal_if(op.kind != OpKind::Compute && op.kind != OpKind::Load &&
                     op.kind != OpKind::Store,
                 "declareLoop: thread '", c.name(),
                 "' declared an op that cannot replay (only compute, "
                 "load and store can)");
    }
    auto block = std::make_unique<const Superblock>(
        std::span<const LoopOp>(body.begin(), body.size()),
        c.machine().memory()->fastPeekView(c.lastCore));
    if (c.sbr.block != nullptr && c.sbr.block == c.loop.get())
        c.retiredLoop = std::move(c.loop);
    // A body that costs nothing could not be bounded by any horizon,
    // and memory ops never replay on a model without a fast path:
    // such a declaration leaves the thread with none.
    if (block->maxIterCycles != 0 &&
        (block->numMemOps == 0 || block->memLat != 0))
        c.loop = std::move(block);
    else
        c.loop.reset();
}

bool
Guest::shouldStop() const
{
    return ctx_->machine().stopRequested(now());
}

Tick
Guest::now() const
{
    // The core clock lags during superblock replay (cycles are folded
    // in at the commit); add the pending span for an exact answer.
    return ctx_->machine().cpu(ctx_->lastCore).now() +
           ctx_->sbPendingTicks();
}

} // namespace limit::sim

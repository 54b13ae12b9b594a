#include "pec/session.hh"

#include "base/logging.hh"
#include "fault/controller.hh"
#include "sim/cpu.hh"
#include "trace/trace.hh"

namespace limit::pec {

namespace {

/** Simulated VA range where per-thread counter pages live. */
constexpr sim::Addr counterPageBase = 0x7f00'0000'0000ull;

/**
 * Emit a tracepoint from guest (coroutine) context, where no Cpu
 * reference is at hand: the thread's last core supplies both the lane
 * and the clock.
 */
void
traceGuest(os::Kernel &kernel, sim::GuestContext &ctx,
           trace::TraceEvent ev, std::uint64_t a0, std::uint64_t a1 = 0)
{
    LIMIT_TRACE(kernel.machine().tracer(), ctx.lastCore, ev,
                kernel.machine().cpu(ctx.lastCore).now(), ctx.tid(), a0,
                a1);
}

/**
 * Report a read-window position to the fault controller, if any. Called
 * from guest context between ops: a controller mutating the machine
 * here (forcing end-of-quantum, arming an overflow) perturbs the run
 * before the read sequence's next op executes.
 */
void
faultReadStep(os::Kernel &kernel, sim::GuestContext &ctx, unsigned ctr,
              fault::ReadStep step)
{
    if (fault::FaultController *f = kernel.machine().faults())
        f->onPecReadStep(ctx, ctr, step);
}

} // namespace

PecSession::PecSession(os::Kernel &kernel, const PecConfig &config)
    : kernel_(kernel), config_(config)
{
}

PecSession::~PecSession()
{
    for (unsigned i = 0; i < sim::maxPmuCounters; ++i) {
        if (active_[i])
            removeEvent(i);
    }
}

void
PecSession::addEvent(unsigned ctr, sim::EventType event, bool user,
                     bool kernel_mode)
{
    fatal_if(ctr >= kernel_.machine().cpu(0).pmu().numCounters(),
             "PEC event on nonexistent counter ", ctr);
    sim::CounterConfig cfg;
    cfg.event = event;
    cfg.countUser = user;
    cfg.countKernel = kernel_mode;
    cfg.enabled = true;
    // Policy None leaves PMIs off: wraps pass silently, reproducing a
    // bare rdpmc without any kernel support.
    cfg.interruptOnOverflow = config_.policy != OverflowPolicy::None;
    kernel_.configureCounter(ctr, cfg);
    active_[ctr] = true;

    // Zero every thread's accumulator for a clean epoch.
    for (auto &st : states_) {
        if (st)
            st->ovfAccum[ctr] = 0;
    }

    if (cfg.interruptOnOverflow) {
        kernel_.setPmiHandler(
            ctr, [this](sim::Cpu &cpu, sim::GuestContext *ctx, unsigned c,
                        std::uint32_t wraps) {
                onOverflow(cpu, ctx, c, wraps);
            });
    }
}

void
PecSession::removeEvent(unsigned ctr)
{
    sim::CounterConfig off;
    kernel_.configureCounter(ctr, off);
    kernel_.clearPmiHandler(ctr);
    active_[ctr] = false;
}

PecThreadState &
PecSession::threadState(sim::GuestContext &ctx)
{
    if (ctx.pecThread)
        return *static_cast<PecThreadState *>(ctx.pecThread);
    auto st = std::make_unique<PecThreadState>();
    st->pageAddr = counterPageBase +
                   static_cast<sim::Addr>(ctx.tid()) * 4096;
    st->tid = ctx.tid();
    PecThreadState &ref = *st;
    states_.push_back(std::move(st));
    ctx.pecThread = &ref;
    return ref;
}

std::uint64_t
PecSession::threadTotal(os::Thread &thread, unsigned ctr)
{
    const auto *st =
        static_cast<const PecThreadState *>(thread.ctx.pecThread);
    const std::uint64_t accum = st ? st->ovfAccum[ctr] : 0;
    sim::Cpu &home = kernel_.machine().cpu(thread.ctx.lastCore);
    const std::uint64_t hw = home.current() == &thread.ctx
        ? home.pmu().read(ctr)
        : thread.savedCounters[ctr];
    return accum + hw;
}

std::uint64_t
PecSession::processTotal(unsigned ctr)
{
    std::uint64_t total = 0;
    for (unsigned t = 0; t < kernel_.numThreads(); ++t)
        total += threadTotal(kernel_.thread(t), ctr);
    return total;
}

void
PecSession::onOverflow(sim::Cpu &cpu, sim::GuestContext *ctx,
                       unsigned ctr, std::uint32_t wraps)
{
    if (!ctx) {
        // Kernel work on an idle core wrapped the counter: there is no
        // thread to credit; the count is lost (and with virtualization
        // the stale hardware value is overwritten at the next
        // switch-in anyway).
        ++orphans_;
        return;
    }
    PecThreadState &st = threadState(*ctx);
    cpu.kernelWork(cpu.costs().overflowVirtCost);
    st.ovfAccum[ctr] +=
        static_cast<std::uint64_t>(wraps) * cpu.pmu().wrapModulus();
    ++fixups_;
    LIMIT_TRACE(cpu.machine().tracer(), cpu.id(),
                trace::TraceEvent::PecOverflowFixup, cpu.now(),
                ctx->tid(), ctr, wraps);

    if (config_.policy == OverflowPolicy::KernelFixup && ctx->inPmcRead) {
        // The paper's trick: the PMI handler notices the interrupted
        // PC lies inside the read routine and rewinds it, so the read
        // re-executes with a consistent (accumulator, counter) pair.
        ctx->pmcRestartRequested = true;
        ++restarts_;
        LIMIT_TRACE(cpu.machine().tracer(), cpu.id(),
                    trace::TraceEvent::PecReadRestart, cpu.now(),
                    ctx->tid(), ctr);
    }
}

sim::Task<std::uint64_t>
PecSession::read(sim::Guest &g, unsigned ctr)
{
    PecThreadState &st = threadState(g.context());
    sim::GuestContext &ctx = g.context();
    const sim::Addr slot = st.pageAddr + ctr * 8;

    switch (config_.policy) {
      case OverflowPolicy::None: {
        // Bare rdpmc: width-limited, unvirtualized against overflow.
        faultReadStep(kernel_, ctx, ctr, fault::ReadStep::Enter);
        const std::uint64_t h = co_await g.pmcRead(ctr);
        faultReadStep(kernel_, ctx, ctr, fault::ReadStep::AfterRdpmc);
        co_return h;
      }

      case OverflowPolicy::NaiveSum: {
        faultReadStep(kernel_, ctx, ctr, fault::ReadStep::Enter);
        co_await g.load(slot); // accumulator load
        const std::uint64_t a = st.ovfAccum[ctr];
        faultReadStep(kernel_, ctx, ctr,
                      fault::ReadStep::AfterAccumLoad);
        const std::uint64_t h = co_await g.pmcRead(ctr);
        faultReadStep(kernel_, ctx, ctr, fault::ReadStep::AfterRdpmc);
        co_await g.compute(6); // sum + return
        co_return a + h;
      }

      case OverflowPolicy::KernelFixup: {
        for (;;) {
            // Entry marker (two instructions: the real routine's
            // bounds are known to the kernel by PC range).
            ctx.inPmcRead = true;
            ctx.pmcRestartRequested = false;
            faultReadStep(kernel_, ctx, ctr, fault::ReadStep::Enter);
            co_await g.compute(2);
            co_await g.load(slot);
            const std::uint64_t a = st.ovfAccum[ctr];
            faultReadStep(kernel_, ctx, ctr,
                          fault::ReadStep::AfterAccumLoad);
            const std::uint64_t h = co_await g.pmcRead(ctr);
            ctx.inPmcRead = false;
            faultReadStep(kernel_, ctx, ctr,
                          fault::ReadStep::AfterRdpmc);
            co_await g.compute(4); // sum, exit marker, return
            if (!ctx.pmcRestartRequested)
                co_return a + h;
            // An overflow landed mid-read; the kernel requested a
            // restart. Loop — the pair is re-read consistently.
        }
      }

      case OverflowPolicy::DoubleCheck: {
        for (;;) {
            faultReadStep(kernel_, ctx, ctr, fault::ReadStep::Enter);
            co_await g.load(slot);
            const std::uint64_t a1 = st.ovfAccum[ctr];
            faultReadStep(kernel_, ctx, ctr,
                          fault::ReadStep::AfterAccumLoad);
            const std::uint64_t h = co_await g.pmcRead(ctr);
            faultReadStep(kernel_, ctx, ctr,
                          fault::ReadStep::AfterRdpmc);
            co_await g.load(slot);
            const std::uint64_t a2 = st.ovfAccum[ctr];
            faultReadStep(kernel_, ctx, ctr,
                          fault::ReadStep::AfterRecheckLoad);
            co_await g.compute(6); // compare + sum + return
            if (a1 == a2)
                co_return a1 + h;
            ++retries_;
            traceGuest(kernel_, ctx,
                       trace::TraceEvent::PecDoubleCheckRetry, ctr);
        }
      }
    }
    panic("unreachable PEC policy");
}

sim::Task<std::uint64_t>
PecSession::readDelta(sim::Guest &g, unsigned ctr)
{
    fatal_if(!kernel_.machine().cpu(0).pmu().features().destructiveRead,
             "readDelta requires the destructiveRead PMU feature");
    PecThreadState &st = threadState(g.context());
    const sim::Addr slot = st.pageAddr + ctr * 8;

    // One instruction reads and clears the hardware counter; the
    // accumulator is harvested and reset alongside. Any wrap absorbed
    // by the PMI during the read is already in the accumulator by the
    // time the cleared value is returned (the PMI retires first).
    faultReadStep(kernel_, g.context(), ctr, fault::ReadStep::Enter);
    const std::uint64_t h = co_await g.pmcReadClear(ctr);
    faultReadStep(kernel_, g.context(), ctr,
                  fault::ReadStep::AfterRdpmc);
    co_await g.load(slot);
    const std::uint64_t a = st.ovfAccum[ctr];
    st.ovfAccum[ctr] = 0;
    co_await g.compute(3); // zero the slot, sum, return
    co_return a + h;
}

} // namespace limit::pec

#include "fault/explorer.hh"

#include <optional>
#include <utility>

#include "base/logging.hh"
#include "fault/plan.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"

namespace limit::fault {

namespace {

/** Read-window steps a policy actually visits (ReadStep indices). */
std::vector<unsigned>
stepsOf(pec::OverflowPolicy policy)
{
    using pec::OverflowPolicy;
    switch (policy) {
      case OverflowPolicy::None:
        return {0, 2}; // Enter, AfterRdpmc
      case OverflowPolicy::NaiveSum:
      case OverflowPolicy::KernelFixup:
        return {0, 1, 2};
      case OverflowPolicy::DoubleCheck:
        return {0, 1, 2, 3};
    }
    panic("unknown PEC policy");
}

/**
 * PlanController that additionally snapshots the exact expected read
 * value at every AfterRdpmc the victim passes. The snapshot is taken
 * *before* the injection at that step runs: a fault armed after the
 * rdpmc latched its value postdates the read and must not be part of
 * what this read is expected to return (a retried read re-snapshots,
 * so policies that recover still match).
 */
class Verifier final : public PlanController
{
  public:
    Verifier(sim::Machine &machine, Plan plan, sim::ThreadId victim)
        : PlanController(machine, std::move(plan)), victim_(victim)
    {
    }

    std::uint64_t lastExpected() const { return lastExpected_; }

    void
    onPecReadStep(sim::GuestContext &ctx, unsigned ctr,
                  ReadStep step) override
    {
        if (step == ReadStep::AfterRdpmc && ctx.tid() == victim_) {
            lastExpected_ =
                ctx.ledger().count(sim::EventType::Instructions,
                                   sim::PrivMode::User) +
                counterBias(ctr);
        }
        PlanController::onPecReadStep(ctx, ctr, step);
    }

  private:
    sim::ThreadId victim_;
    std::uint64_t lastExpected_ = 0;
};

/** One enumerated run; returns reads checked and violations found. */
struct RunOutcome
{
    std::uint64_t reads = 0;
    std::uint64_t violations = 0;
    std::uint64_t injected = 0;
};

RunOutcome
runOne(const ExplorerOptions &opts, const Plan &plan)
{
    sim::MachineConfig mc;
    mc.numCores = 1; // a forced switch needs a competitor on the core
    mc.pmuCounters = 4;
    mc.pmuFeatures.counterWidth = opts.counterWidth;
    mc.quantum = opts.quantum;
    sim::Machine machine(mc);
    os::Kernel kernel(machine, {.virtualizeCounters = true,
                                .seed = opts.seed});
    pec::PecSession session(kernel, {.policy = opts.policy});
    session.addEvent(0, sim::EventType::Instructions, /*user=*/true,
                     /*kernel_mode=*/false);

    RunOutcome out;
    bool done = false;
    Verifier *verifier_ptr = nullptr; // set below, before run()
    // Policy None promises exactness only modulo the counter width.
    const std::uint64_t mask = opts.policy == pec::OverflowPolicy::None
        ? (opts.counterWidth >= 64
               ? ~0ull
               : (1ull << opts.counterWidth) - 1)
        : ~0ull;

    const sim::ThreadId victim_tid = kernel.spawn(
        "victim",
        [&](sim::Guest &g) -> sim::Task<void> {
            Verifier &v = *verifier_ptr;
            for (unsigned r = 0; r < opts.reads; ++r) {
                co_await g.compute(opts.workPerRead);
                const std::uint64_t got = co_await session.read(g, 0);
                // No guest op runs between the read returning and this
                // check, so lastExpected() still holds the snapshot of
                // this read's final rdpmc.
                const std::uint64_t want = v.lastExpected();
                ++out.reads;
                if ((got & mask) != (want & mask))
                    ++out.violations;
            }
            done = true;
        });

    kernel.spawn("competitor", [&](sim::Guest &g) -> sim::Task<void> {
        while (!done && !g.shouldStop())
            co_await g.compute(60);
    });

    Verifier verifier(machine, plan, victim_tid);
    verifier_ptr = &verifier;
    machine.setFaults(&verifier);
    machine.run();
    machine.setFaults(nullptr);
    out.injected = verifier.injected();
    return out;
}

} // namespace

ExplorerResult
explore(const ExplorerOptions &opts)
{
    fatal_if(opts.reads == 0, "Explorer needs at least one read");
    fatal_if(opts.overflowMargin == 0, "overflow margin must be >= 1");

    const std::vector<unsigned> steps = stepsOf(opts.policy);

    // A choice is "no fault here" or (step, occurrence). Occurrences
    // are hook hits at the chosen step, bounded by the read count:
    // enough to land the fault in the first, a middle, or the last
    // read's window (retried iterations hit the same steps again, so
    // some occurrences land in retries — that only widens coverage).
    std::vector<std::optional<FaultSpec>> preempts{std::nullopt};
    std::vector<std::optional<FaultSpec>> overflows{std::nullopt};
    for (const unsigned step : steps) {
        for (unsigned nth = 1; nth <= opts.reads; ++nth) {
            FaultSpec p;
            p.site = Site::PreemptRead;
            p.step = step;
            p.nth = nth;
            preempts.push_back(p);
            FaultSpec o;
            o.site = Site::OverflowRead;
            o.step = step;
            o.margin = opts.overflowMargin;
            o.nth = nth;
            overflows.push_back(o);
        }
    }

    ExplorerResult result;
    for (const auto &p : preempts) {
        for (const auto &o : overflows) {
            Plan plan;
            if (p)
                plan.add(*p);
            if (o)
                plan.add(*o);
            const RunOutcome run = runOne(opts, plan);
            ++result.interleavings;
            result.reads += run.reads;
            result.injected += run.injected;
            if (run.violations > 0) {
                result.violations += run.violations;
                result.failingPlans.push_back(
                    plan.empty() ? "(no faults)" : plan.str());
            }
        }
    }
    return result;
}

} // namespace limit::fault

/**
 * @file
 * Deterministic fault plans: what to break, where, and when.
 *
 * A Plan is an ordered list of FaultSpecs, each naming an injection
 * site (one of the simulator's hazard seams) and a trigger (which
 * occurrence, which counter, which read-window step). Plans parse from
 * the `--faults=<spec>` bench flag and print back to the same grammar,
 * so any injected failure is replayable from one string (see
 * docs/FAULTS.md for the grammar and the site catalogue).
 *
 * PlanController executes a Plan against a machine: it implements the
 * FaultController hooks, arms each spec, fires it on the nth matching
 * trigger, and emits a FaultInjected trace record per injection. For
 * overflow injection it also tracks the artificial counter jump it
 * introduced (counterBias), so exactness checks can still predict what
 * a correct read policy must return.
 */

#ifndef LIMIT_FAULT_PLAN_HH
#define LIMIT_FAULT_PLAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/controller.hh"
#include "sim/pmu.hh"
#include "sim/types.hh"

namespace limit::sim {
class Machine;
}

namespace limit::fault {

/** Injection sites — one per hazard seam the simulator exposes. */
enum class Site : std::uint8_t {
    /** Force an involuntary context switch inside a PEC read window. */
    PreemptRead = 0,
    /** Arm the counter to overflow `margin` events into a read window. */
    OverflowRead,
    /** Discard a pending PMI for the matching counter. */
    DropPmi,
    /** Hold a pending PMI back for `ticks` before delivery. */
    DelayPmi,
    /** Skip one counter save at switch-out (stale saved value). */
    SkipSave,
    /** Replace one saved counter value with `value`. */
    CorruptSave,
    /** Skip one counter restore at switch-in (stale hardware value). */
    SkipRestore,
    /** Replace one restored counter value with `value`. */
    CorruptRestore,
    /** Wake a futex waiter spuriously `ticks` after it blocks. */
    SpuriousWake,
    /** Stall the matching syscall's slow path by `ticks` of kernel work. */
    StallSyscall,
    NumSites, // must be last
};

/** Number of distinct injection sites. */
inline constexpr unsigned numSites = static_cast<unsigned>(Site::NumSites);

/** Stable kebab-case site name (the grammar's site token). */
std::string_view siteName(Site s);

/** Parse a site token; returns false on unknown names. */
bool parseSite(std::string_view text, Site &out);

/** `nr` wildcard: match every syscall. */
inline constexpr std::uint32_t anySyscall = ~0u;

/**
 * One armed fault. Only the fields a site consults matter to it; the
 * rest keep their defaults (see docs/FAULTS.md for the per-site key
 * table).
 */
struct FaultSpec
{
    Site site = Site::NumSites;
    /** Read-window step to fire at (ReadStep index; read sites). */
    unsigned step = 1;
    /** Hardware counter to match (read/PMI/save/restore sites). */
    unsigned ctr = 0;
    /** Replacement value (corrupt-save / corrupt-restore). */
    std::uint64_t value = 0;
    /** Events left before wrap when arming an overflow (≥ 1). */
    std::uint64_t margin = 1;
    /** Injected latency (delay-pmi / spurious-wake / stall-syscall). */
    sim::Tick ticks = 1000;
    /** Syscall number to match (stall-syscall); anySyscall = all. */
    std::uint32_t nr = anySyscall;
    /** Fire on the nth matching trigger (1-based); 0 = every time. */
    std::uint64_t nth = 1;
};

/** An ordered, replayable set of fault specs. */
class Plan
{
  public:
    Plan() = default;

    Plan &
    add(const FaultSpec &spec)
    {
        specs_.push_back(spec);
        return *this;
    }

    const std::vector<FaultSpec> &specs() const { return specs_; }
    bool empty() const { return specs_.empty(); }

    /**
     * Parse the `--faults` grammar:
     *   plan  := item (';' item)*
     *   item  := site (':' key '=' uint)*
     * On failure, returns false and sets `error` to a one-line
     * diagnostic; `out` is left unspecified.
     */
    static bool parse(std::string_view text, Plan &out,
                      std::string &error);

    /** Canonical replay string (round-trips through parse). */
    std::string str() const;

  private:
    std::vector<FaultSpec> specs_;
};

/**
 * Executes a Plan against one machine. Attach with
 * machine.setFaults(&controller); detach (or let the plan run dry)
 * to stop injecting. Deterministic: firing depends only on the
 * simulation's own event sequence.
 */
class PlanController : public FaultController
{
  public:
    PlanController(sim::Machine &machine, Plan plan);

    /** Total injections performed. */
    std::uint64_t injected() const { return injected_; }

    /** Injections at one site. */
    std::uint64_t
    injectedAt(Site s) const
    {
        return injectedAt_[static_cast<unsigned>(s)];
    }

    /**
     * Net artificial value injected into counter `ctr` by overflow
     * arming (wrapping uint64). A correct read policy must return
     * ledger + bias; anything else lost or double-counted events.
     */
    std::uint64_t
    counterBias(unsigned ctr) const
    {
        return bias_[ctr];
    }

    /** @name FaultController @{ */
    void onPecReadStep(sim::GuestContext &ctx, unsigned ctr,
                       ReadStep step) override;
    PmiAction onPmiDeliver(sim::Cpu &cpu, unsigned ctr,
                           std::uint32_t wraps) override;
    SaveRestoreAction onCounterSave(sim::Cpu &cpu, sim::ThreadId tid,
                                    unsigned ctr,
                                    std::uint64_t value) override;
    SaveRestoreAction onCounterRestore(sim::Cpu &cpu, sim::ThreadId tid,
                                       unsigned ctr,
                                       std::uint64_t value) override;
    sim::Tick onSyscallEnter(sim::Cpu &cpu, sim::ThreadId tid,
                             std::uint32_t nr) override;
    sim::Tick onFutexBlock(sim::Cpu &cpu, sim::ThreadId tid,
                           sim::Addr addr) override;
    /** @} */

  protected:
    /** One spec plus its firing state. */
    struct Armed
    {
        FaultSpec spec;
        std::uint64_t hits = 0;
        bool fired = false;
    };

    /**
     * Count a trigger match and decide whether to fire: nth == 0 fires
     * every time, otherwise exactly once on the nth match.
     */
    bool due(Armed &a);

    /** Record one injection (counters + FaultInjected tracepoint). */
    void note(sim::CoreId core, sim::Tick tick, sim::ThreadId tid,
              Site site, std::uint64_t arg);

    sim::Machine &machine_;
    std::vector<Armed> armed_;
    std::array<std::uint64_t, sim::maxPmuCounters> bias_{};
    std::uint64_t injected_ = 0;
    std::array<std::uint64_t, numSites> injectedAt_{};
};

} // namespace limit::fault

#endif // LIMIT_FAULT_PLAN_HH

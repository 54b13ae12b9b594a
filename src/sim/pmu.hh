/**
 * @file
 * Per-core performance monitoring unit model.
 *
 * Counters are `counterWidth`-bit saturating-free (wrapping) registers
 * programmed with an event selector and user/kernel mode filters, in
 * the style of x86 architectural performance counters. Overflow raises
 * a PMI (delivered by the Cpu at the next op boundary) when the
 * counter's interrupt enable is set.
 *
 * The paper's three proposed hardware enhancements appear as
 * PmuFeatures: 64-bit userspace-visible counters (no overflow
 * machinery needed), destructive reads (read-and-clear in one
 * instruction), and tag-based virtualization (hardware swaps counter
 * state on context switch, eliminating the kernel's MSR save/restore).
 */

#ifndef LIMIT_SIM_PMU_HH
#define LIMIT_SIM_PMU_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace limit::sim {

/** Upper bound on programmable counters per core. */
inline constexpr unsigned maxPmuCounters = 8;

/** Programming of one hardware counter. */
struct CounterConfig
{
    EventType event = EventType::Cycles;
    bool countUser = true;
    bool countKernel = false;
    bool enabled = false;
    /** Raise a PMI when the counter wraps. */
    bool interruptOnOverflow = false;
};

/** Optional hardware capabilities (the paper's enhancement proposals). */
struct PmuFeatures
{
    /** Counter width in bits; 64 is enhancement #1. */
    unsigned counterWidth = 48;
    /** Enhancement #2: a single-instruction read-and-clear. */
    bool destructiveRead = false;
    /**
     * Enhancement #3: hardware tags counter state with the thread
     * context so the kernel pays no MSR save/restore on switches.
     */
    bool taggedVirtualization = false;
};

/** Per-counter wrap counts produced by applying one batch of events. */
struct OverflowSet
{
    std::array<std::uint32_t, maxPmuCounters> wraps{};
    bool any = false;
};

/** One counter's wrap report from the allocation-free apply path. */
struct WrapEvent
{
    std::uint8_t counter;
    std::uint32_t wraps;
};

/** One core's PMU. */
class Pmu
{
  public:
    Pmu(unsigned num_counters, const PmuFeatures &features);

    unsigned numCounters() const { return numCounters_; }
    const PmuFeatures &features() const { return features_; }

    /** Program counter `idx`; resets its value to zero. */
    void configure(unsigned idx, const CounterConfig &cfg);

    /** Current programming of counter `idx`. */
    const CounterConfig &config(unsigned idx) const;

    /** Kernel-mode write (WRMSR-style); value is masked to the width. */
    void write(unsigned idx, std::uint64_t value);

    /** Userspace read (RDPMC-style). */
    std::uint64_t read(unsigned idx) const;

    /**
     * Destructive read: returns the value and clears the counter.
     * Only legal when features().destructiveRead is set.
     */
    std::uint64_t readAndClear(unsigned idx);

    /**
     * Apply one op's event deltas in the given privilege mode,
     * honouring each counter's filters. Returns how many times each
     * counter wrapped (possibly more than once for tiny widths).
     */
    OverflowSet apply(PrivMode mode, const EventDeltas &deltas);

    /**
     * Hot-path apply: identical counting semantics to apply(), but
     * iterates only the counters active in `mode` (precomputed when
     * counters are (re)programmed) and reports wraps into `out`
     * without zero-initializing anything. `delta_of(event_index)`
     * supplies the per-event delta, so callers with a known-sparse op
     * (a cache-hit load is exactly {Cycles, Instructions, Loads}) can
     * skip materializing the dense EventDeltas array. Defined inline:
     * it runs once per guest op.
     * @return number of entries written to `out`.
     */
    template <typename DeltaOf>
    unsigned
    applyActive(PrivMode mode, DeltaOf delta_of,
                WrapEvent (&out)[maxPmuCounters])
    {
        const unsigned m = static_cast<unsigned>(mode);
        const unsigned n = activeCount_[m];
        if (n == 0)
            return 0;

        unsigned wrapped = 0;
        const unsigned width = features_.counterWidth;
        if (width >= 64) {
            // 64-bit counters: wraps are possible in principle but
            // unreachable in any feasible simulation; plain add.
            for (unsigned k = 0; k < n; ++k) {
                const ActiveCounter ac = active_[m][k];
                values_[ac.idx] += delta_of(ac.event);
            }
            return 0;
        }

        // The modulus is a power of two, so wrap count and remainder
        // are a shift and a mask — no 128-bit division per op.
        const std::uint64_t mask = valueMask();
        for (unsigned k = 0; k < n; ++k) {
            const ActiveCounter ac = active_[m][k];
            const std::uint64_t delta = delta_of(ac.event);
            if (delta == 0)
                continue;
            const unsigned __int128 sum =
                static_cast<unsigned __int128>(values_[ac.idx]) + delta;
            values_[ac.idx] = static_cast<std::uint64_t>(sum) & mask;
            const auto wraps = static_cast<std::uint32_t>(sum >> width);
            if (wraps > 0)
                out[wrapped++] = {ac.idx, wraps};
        }
        return wrapped;
    }

    /** applyActive over a dense per-event delta array. */
    unsigned
    applyFast(PrivMode mode, const EventDeltas &deltas,
              WrapEvent (&out)[maxPmuCounters])
    {
        return applyActive(
            mode, [&](unsigned e) { return deltas.counts[e]; }, out);
    }

    /**
     * Largest number of loop iterations a superblock replay may apply
     * in `mode` without any active counter wrapping, given the dense
     * per-iteration upper-bound deltas in `per_iter` (indexed by
     * EventType). Conservative by construction: the bounds dominate
     * the actual deltas, and "no wrap on the final value" plus
     * monotonic accumulation rules out intermediate wraps too, which
     * is what lets the replay commit fold a whole block into a single
     * applyActive call without missing a PMI.
     */
    std::uint64_t
    noWrapIterBound(PrivMode mode,
                    const std::uint64_t (&per_iter)[numEventTypes]) const
    {
        const unsigned m = static_cast<unsigned>(mode);
        const std::uint64_t mask = valueMask();
        std::uint64_t best = ~0ull;
        for (unsigned k = 0; k < activeCount_[m]; ++k) {
            const ActiveCounter ac = active_[m][k];
            const std::uint64_t u = per_iter[ac.event];
            if (u == 0)
                continue;
            const std::uint64_t bound = (mask - values_[ac.idx]) / u;
            if (bound < best)
                best = bound;
        }
        return best;
    }

    /**
     * Division-free fast path for noWrapIterBound: true when `iters`
     * iterations provably fit every active counter in `mode` without
     * a wrap. Callers fall back to noWrapIterBound's exact division
     * only when this multiply-compare says the bound may bind.
     */
    bool
    fitsWithoutWrap(PrivMode mode,
                    const std::uint64_t (&per_iter)[numEventTypes],
                    std::uint64_t iters) const
    {
        const unsigned m = static_cast<unsigned>(mode);
        const std::uint64_t mask = valueMask();
        for (unsigned k = 0; k < activeCount_[m]; ++k) {
            const ActiveCounter ac = active_[m][k];
            const auto need =
                static_cast<unsigned __int128>(per_iter[ac.event]) * iters;
            if (need > mask - values_[ac.idx])
                return false;
        }
        return true;
    }

    /** Value mask for the configured width. */
    std::uint64_t
    valueMask() const
    {
        return features_.counterWidth >= 64
            ? ~0ull
            : (1ull << features_.counterWidth) - 1;
    }

    /** 2^width as a 128-bit-safe modulus helper (0 means 2^64). */
    std::uint64_t
    wrapModulus() const
    {
        return features_.counterWidth >= 64
            ? 0
            : 1ull << features_.counterWidth;
    }

  private:
    /** Rebuild the per-mode active-counter lists after reprogramming. */
    void rebuildActive();

    /** Compact (counter index, event index) pair for the hot loop. */
    struct ActiveCounter
    {
        std::uint8_t idx;
        std::uint8_t event;
    };

    unsigned numCounters_;
    PmuFeatures features_;
    std::array<CounterConfig, maxPmuCounters> configs_{};
    std::array<std::uint64_t, maxPmuCounters> values_{};
    /** Counters enabled for each privilege mode (index: PrivMode). */
    std::array<ActiveCounter, maxPmuCounters> active_[2]{};
    unsigned activeCount_[2] = {0, 0};
};

} // namespace limit::sim

#endif // LIMIT_SIM_PMU_HH

/**
 * @file
 * Online divergence sentinel and fast-path quarantine.
 *
 * The simulator ships three execution modes with one contract: the
 * decoded-op superblock cache, the horizon-batched scheduler, and the
 * per-op reference interpreter must produce bit-identical results. The
 * sentinel enforces that contract *while a campaign runs* instead of
 * trusting it: for a sampled subset of jobs it re-executes a short
 * prefix window of the job through both the fast path and the per-op
 * oracle, compares Fingerprints, and on mismatch
 *
 *   1. bisects the window (doubling the divisor, i.e. halving the
 *      window, until the fingerprints agree) to bracket the offending
 *      region,
 *   2. records a structured DivergenceReport (serialised as a
 *      `limitpp-divergence-v1` JSON blob), and
 *   3. quarantines the fast path — all later jobs routed through this
 *      sentinel run one rung lower on the mode ladder
 *      (superblock → batched → per-op), and the divergent job itself
 *      is deterministically re-run in the degraded mode.
 *
 * Mode forcing rides on sim::ScopedExecutionClamp (thread-local, purely
 * narrowing), so probes never mutate shared configuration and the
 * sentinel composes with `--no-batch` / `--no-superblock` / the
 * LIMITPP_FORCE_* environment overrides: when those already pin the
 * process to per-op there is nothing faster to cross-check and checks
 * self-disable. See docs/ROBUSTNESS.md for the sampling policy and
 * overhead model.
 */

#ifndef LIMIT_GUARD_SENTINEL_HH
#define LIMIT_GUARD_SENTINEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "guard/fingerprint.hh"
#include "sim/machine.hh"

namespace limit::os {
class Kernel;
}

namespace limit::guard {

/** The execution-mode ladder, fastest first. */
enum class ExecMode : std::uint8_t {
    Superblock = 0, ///< batched scheduler + superblock replay cache
    Batched = 1,    ///< batched scheduler, replay cache off
    PerOp = 2,      ///< per-op reference interpreter (the oracle)
};

/** Stable lower-case mode name ("superblock" / "batched" / "per-op"). */
std::string_view modeName(ExecMode m);

/** Parse a mode name; returns false on unknown names. */
bool parseMode(std::string_view text, ExecMode &out);

/** One rung down the ladder; PerOp degrades to itself. */
constexpr ExecMode
nextSlower(ExecMode m)
{
    return m == ExecMode::Superblock ? ExecMode::Batched : ExecMode::PerOp;
}

/**
 * The mode actually reachable for `requested` under the process-wide
 * defaults (`--no-batch` / `--no-superblock` / LIMITPP_FORCE_*) and any
 * enclosing ScopedExecutionClamp. A request can only be narrowed.
 */
ExecMode effectiveMode(ExecMode requested);

/**
 * RAII: force the current thread's simulations into `mode` (narrowing
 * only — an outer clamp or process default still wins). Nestable.
 */
class ModeScope
{
  public:
    explicit ModeScope(ExecMode mode)
        : clamp_(mode != ExecMode::PerOp, mode == ExecMode::Superblock)
    {}

    ModeScope(const ModeScope &) = delete;
    ModeScope &operator=(const ModeScope &) = delete;

  private:
    sim::ScopedExecutionClamp clamp_;
};

/**
 * RAII: marks the current thread as running a sentinel probe. While a
 * ProbeScope is active, SimBundle::run truncates the simulation to a
 * window of the requested horizon (stop / windowDiv) and folds the
 * result into the scope's Fingerprint instead of running to
 * completion — so a probe re-executes only a sampled prefix of the
 * job, at a cost of roughly perOpSlowdown / windowDiv of the job
 * itself.
 */
class ProbeScope
{
  public:
    explicit ProbeScope(std::uint64_t windowDiv);
    ~ProbeScope();

    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

    /** The innermost active scope on this thread, or nullptr. */
    static ProbeScope *active();

    /** Truncate a requested stop tick to this probe's window. */
    sim::Tick
    window(sim::Tick stopAt) const
    {
        const sim::Tick w = stopAt / windowDiv_;
        return w > 0 ? w : 1;
    }

    /** Fold one finished windowed run into the probe fingerprint. */
    void
    fold(os::Kernel &kernel, sim::Machine &machine, sim::Tick endTick)
    {
        foldRun(fp_, kernel, machine, endTick);
    }

    const Fingerprint &fingerprint() const { return fp_; }
    std::uint64_t windowDiv() const { return windowDiv_; }

  private:
    std::uint64_t windowDiv_;
    Fingerprint fp_;
    ProbeScope *prev_;
};

/** Sentinel policy knobs (wired from `--sentinel*` bench flags). */
struct SentinelOptions
{
    /** Master switch; off costs nothing. */
    bool enabled = false;
    /** Cross-check every Nth job routed through the sentinel (≥ 1). */
    unsigned sampleEvery = 1;
    /** Initial window divisor: probe horizon = job horizon / this. */
    std::uint64_t windowDiv = 256;
    /** Cap on bisection probes after a mismatch. */
    unsigned maxBisectSteps = 12;
    /** Where writeReport() lands the JSON blob ("" = don't write). */
    std::string reportPath = "divergence.json";
};

/** One bisection probe: window divisor tried, and whether it agreed. */
struct BisectStep
{
    std::uint64_t div = 0;
    bool matched = false;
};

/** Structured record of one detected fast-path divergence. */
struct DivergenceReport
{
    /** Campaign job index that diverged. */
    std::size_t job = 0;
    /** Fast mode that was caught lying. */
    ExecMode fast = ExecMode::Superblock;
    /** Mode the ladder degraded to. */
    ExecMode quarantined = ExecMode::Batched;
    /** Divisor of the first (widest) diverging window. */
    std::uint64_t windowDiv = 0;
    /** Narrowest divisor that still diverged. */
    std::uint64_t divergentDiv = 0;
    /** Narrowest divisor found to agree (0 = none within the cap). */
    std::uint64_t cleanDiv = 0;
    Fingerprint fastFp;
    Fingerprint referenceFp;
    std::vector<BisectStep> trail;
};

/**
 * Cross-checks sampled jobs and quarantines the fast path on mismatch.
 * Thread-safe: campaign workers call modeFor / shouldCheck / check
 * concurrently; the quarantine floor is a single atomic and reports go
 * behind a mutex.
 */
class Sentinel
{
  public:
    /**
     * Re-runs the job's windowed prefix in `mode` with the given
     * window divisor and returns its fingerprint. The campaign layer
     * supplies this; it must be deterministic and side-effect-free
     * (probe results are discarded).
     */
    using Probe =
        std::function<Fingerprint(ExecMode mode, std::uint64_t windowDiv)>;

    explicit Sentinel(SentinelOptions options) : options_(options) {}

    const SentinelOptions &options() const { return options_; }

    /** Apply the quarantine floor to a requested mode. */
    ExecMode
    modeFor(ExecMode requested) const
    {
        const auto floor = static_cast<ExecMode>(floor_.load());
        return static_cast<std::uint8_t>(requested) >=
                       static_cast<std::uint8_t>(floor)
                   ? requested
                   : floor;
    }

    /** Should job `job`, which ran in `mode`, be cross-checked? */
    bool
    shouldCheck(std::size_t job, ExecMode mode) const
    {
        return options_.enabled && mode != ExecMode::PerOp &&
               effectiveMode(mode) != ExecMode::PerOp &&
               job % (options_.sampleEvery > 0 ? options_.sampleEvery : 1) ==
                   0;
    }

    /**
     * Cross-check job `job` (which ran in `mode`) by probing a sampled
     * window through both `mode` and the per-op oracle. On divergence:
     * bisect, record a DivergenceReport, raise the quarantine floor to
     * nextSlower(mode), and return true (caller must re-run the job in
     * modeFor(mode)). Probe exceptions void the check (counted in
     * probeErrors) rather than failing the job.
     */
    bool check(std::size_t job, ExecMode mode, const Probe &probe);

    /** Divergences recorded so far (snapshot). */
    std::vector<DivergenceReport> reports() const;

    std::uint64_t checksRun() const { return checks_.load(); }
    std::uint64_t divergences() const { return divergences_.load(); }
    std::uint64_t probeErrors() const { return probeErrors_.load(); }

    /** Host CPU seconds spent inside probes (overhead accounting). */
    double probeSeconds() const;

    /** The `limitpp-divergence-v1` JSON blob (valid even when clean). */
    std::string reportJson() const;

    /**
     * Write reportJson() to options().reportPath if any divergence was
     * recorded and the path is nonempty. Returns true if written.
     */
    bool writeReport() const;

  private:
    SentinelOptions options_;
    std::atomic<std::uint8_t> floor_{
        static_cast<std::uint8_t>(ExecMode::Superblock)};
    std::atomic<std::uint64_t> checks_{0};
    std::atomic<std::uint64_t> divergences_{0};
    std::atomic<std::uint64_t> probeErrors_{0};
    std::atomic<std::uint64_t> probeNs_{0};
    mutable std::mutex mutex_;
    std::vector<DivergenceReport> reports_;
};

} // namespace limit::guard

#endif // LIMIT_GUARD_SENTINEL_HH

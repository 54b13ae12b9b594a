/**
 * @file
 * Run fingerprints: one hash over a finished simulation.
 *
 * A Fingerprint condenses everything the bit-identity contract covers
 * about a finished simulation — end tick, context switches, every
 * thread's exact per-mode event ledgers, and every core's final PMU
 * values — into one FNV-1a hash plus a few headline fields kept
 * un-hashed for diagnostics. Two runs of the same job through
 * different execution modes (superblock / batched / per-op) must
 * produce equal fingerprints; tests/test_guard.cc checks that, and
 * limitbench digests its jobs with foldRun.
 */

#ifndef LIMIT_GUARD_FINGERPRINT_HH
#define LIMIT_GUARD_FINGERPRINT_HH

#include <cstdint>

#include "sim/types.hh"

namespace limit::os {
class Kernel;
}
namespace limit::sim {
class Machine;
}

namespace limit::guard {

/** Condensed observable state of one (or more) finished runs. */
struct Fingerprint
{
    /** FNV-1a 64 over every folded field, in a fixed order. */
    std::uint64_t hash = 0xcbf29ce484222325ull;
    /** Largest end tick folded (diagnostics; also hashed). */
    sim::Tick endTick = 0;
    /** Total instructions across all folded ledgers (diagnostics). */
    std::uint64_t instructions = 0;
    /** Total context switches folded (diagnostics). */
    std::uint64_t contextSwitches = 0;
    /** Machine runs folded in. */
    std::uint64_t runs = 0;

    /** Mix one value into the hash (FNV-1a over its 8 bytes). */
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }

    bool operator==(const Fingerprint &) const = default;
};

/**
 * Fold one finished machine into `fp`: end tick, context switches,
 * thread-major / mode-major / event-ordered ledgers, and core-major
 * final PMU values — the same observables tests/test_batch.cc pins
 * for scheduler equivalence.
 */
void foldRun(Fingerprint &fp, os::Kernel &kernel, sim::Machine &machine,
             sim::Tick endTick);

} // namespace limit::guard

#endif // LIMIT_GUARD_FINGERPRINT_HH

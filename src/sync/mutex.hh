/**
 * @file
 * Guest-level mutual exclusion: the futex mutex.
 *
 * The futex mutex follows the classic three-state protocol (Drepper,
 * "Futexes Are Tricky"): 0 = free, 1 = locked, 2 = locked with
 * waiters. Uncontended acquire/release is a single CAS/exchange with
 * no kernel involvement — exactly the locking structure whose short
 * critical sections the paper's case studies characterize.
 */

#ifndef LIMIT_SYNC_MUTEX_HH
#define LIMIT_SYNC_MUTEX_HH

#include <cstdint>

#include "sim/guest.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace limit::sync {

/** Three-state futex mutex (sleeps in the kernel under contention). */
class Mutex
{
  public:
    explicit Mutex(sim::Addr addr) : addr_(addr) {}

    /**
     * Acquire.
     * @return number of futexWait syscalls performed (0 on the
     *         uncontended fast path) — handy for contention studies.
     */
    sim::Task<std::uint64_t> lock(sim::Guest &g);

    /** Release; wakes one waiter when contended. */
    sim::Task<void> unlock(sim::Guest &g);

    bool lockedHost() const { return word_ != 0; }
    bool contendedHost() const { return word_ == 2; }
    sim::Addr addr() const { return addr_; }

    /** Total acquisitions (host-side statistic, zero cost). */
    std::uint64_t acquisitions() const { return acquisitions_; }

  private:
    std::uint64_t word_ = 0;
    sim::Addr addr_;
    std::uint64_t acquisitions_ = 0;
};

} // namespace limit::sync

#endif // LIMIT_SYNC_MUTEX_HH

/**
 * @file
 * Futex-based condition variable.
 */

#ifndef LIMIT_SYNC_CONDVAR_HH
#define LIMIT_SYNC_CONDVAR_HH

#include <cstdint>

#include "sim/guest.hh"
#include "sim/task.hh"
#include "sim/types.hh"
#include "sync/mutex.hh"

namespace limit::sync {

/** Sequence-counter condition variable (glibc style). */
class CondVar
{
  public:
    explicit CondVar(sim::Addr addr) : addr_(addr) {}

    /**
     * Atomically release `m` and sleep until signalled; re-acquires
     * `m` before returning. Callers must re-check their predicate
     * (spurious wakeups are possible, as with POSIX).
     */
    sim::Task<void> wait(sim::Guest &g, Mutex &m);

    /** Wake one waiter. */
    sim::Task<void> signal(sim::Guest &g);

    /** Wake all waiters. */
    sim::Task<void> broadcast(sim::Guest &g);

  private:
    std::uint64_t seq_ = 0;
    sim::Addr addr_;
};

} // namespace limit::sync

#endif // LIMIT_SYNC_CONDVAR_HH

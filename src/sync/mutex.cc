#include "sync/mutex.hh"

#include "sync/futex.hh"

// NOTE: throughout this library, co_await results are always bound to
// named locals before being tested. GCC 12 miscompiles `co_await`
// expressions that appear directly inside controlling conditions
// (see sim/task.hh), so the pattern is a project-wide rule.

namespace limit::sync {

sim::Task<std::uint64_t>
Mutex::lock(sim::Guest &g)
{
    ++acquisitions_;
    // Fast path: free -> locked.
    std::uint64_t c = co_await g.atomicCas(&word_, addr_, 0, 1);
    if (c == 0)
        co_return 0;

    // Slow path (Drepper's exchange variant): mark contended, sleep,
    // and re-take with the contended mark so unlock wakes a successor.
    std::uint64_t waits = 0;
    if (c != 2)
        c = co_await g.atomicExchange(&word_, addr_, 2);
    while (c != 0) {
        ++waits;
        co_await futexWait(g, &word_, addr_, 2);
        c = co_await g.atomicExchange(&word_, addr_, 2);
    }
    co_return waits;
}

sim::Task<void>
Mutex::unlock(sim::Guest &g)
{
    const std::uint64_t old = co_await g.atomicExchange(&word_, addr_, 0);
    if (old == 2)
        co_await futexWake(g, &word_, addr_, 1);
}

} // namespace limit::sync

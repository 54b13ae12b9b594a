#include "sync/mutex.hh"

#include "sync/futex.hh"

// NOTE: throughout this library, co_await results are always bound to
// named locals before being tested. GCC 12 miscompiles `co_await`
// expressions that appear directly inside controlling conditions
// (see sim/task.hh), so the pattern is a project-wide rule.

namespace limit::sync {

sim::Task<void>
SpinLock::lock(sim::Guest &g)
{
    for (;;) {
        // Test-and-set attempt.
        const std::uint64_t old =
            co_await g.atomicCas(&word_, addr_, 0, 1);
        if (old == 0)
            co_return;
        // Test loop: spin on plain loads until the lock looks free.
        for (;;) {
            const std::uint64_t v = co_await g.atomicLoad(&word_, addr_);
            if (v == 0)
                break;
            co_await g.compute(2); // pause
        }
    }
}

sim::Task<void>
SpinLock::unlock(sim::Guest &g)
{
    co_await g.atomicStore(&word_, addr_, 0);
}

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

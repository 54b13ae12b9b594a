#include "sync/condvar.hh"

#include "sync/futex.hh"

namespace limit::sync {

sim::Task<void>
CondVar::wait(sim::Guest &g, Mutex &m)
{
    const std::uint64_t seq = co_await g.atomicLoad(&seq_, addr_);
    co_await m.unlock(g);
    co_await futexWait(g, &seq_, addr_, seq);
    co_await m.lock(g);
}

sim::Task<void>
CondVar::signal(sim::Guest &g)
{
    co_await g.atomicFetchAdd(&seq_, addr_, 1);
    co_await futexWake(g, &seq_, addr_, 1);
}

sim::Task<void>
CondVar::broadcast(sim::Guest &g)
{
    co_await g.atomicFetchAdd(&seq_, addr_, 1);
    co_await futexWake(g, &seq_, addr_, ~0ull);
}

} // namespace limit::sync

/**
 * @file
 * Thin guest-side wrappers over the kernel futex syscalls.
 */

#ifndef LIMIT_SYNC_FUTEX_HH
#define LIMIT_SYNC_FUTEX_HH

#include <cstdint>

#include "os/sysno.hh"
#include "sim/guest.hh"
#include "sim/task.hh"

namespace limit::sync {

/**
 * Block until woken, provided *word still equals `expected`.
 * @return 0 when woken by a futexWake, 1 (EAGAIN) on value mismatch.
 */
inline sim::Task<std::uint64_t>
futexWait(sim::Guest &g, std::uint64_t *word, sim::Addr addr,
          std::uint64_t expected)
{
    const std::uint64_t r = co_await g.syscall(
        os::sysFutexWait,
        {addr, expected, reinterpret_cast<std::uint64_t>(word), 0});
    co_return r;
}

/** Wake up to `count` threads blocked on `word`; returns how many. */
inline sim::Task<std::uint64_t>
futexWake(sim::Guest &g, std::uint64_t *word, sim::Addr addr,
          std::uint64_t count)
{
    const std::uint64_t r = co_await g.syscall(
        os::sysFutexWake,
        {addr, count, reinterpret_cast<std::uint64_t>(word), 0});
    co_return r;
}

} // namespace limit::sync

#endif // LIMIT_SYNC_FUTEX_HH

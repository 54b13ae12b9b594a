/**
 * @file
 * Syscall numbers understood by the simulated kernel.
 */

#ifndef LIMIT_OS_SYSNO_HH
#define LIMIT_OS_SYSNO_HH

#include <cstdint>

namespace limit::os {

/**
 * Syscall numbers (see Kernel::syscall for argument conventions).
 * Numbered explicitly: a retired number stays unused, so
 * `--faults stall-syscall:nr=N` plans and trace `nr` values keep
 * their meaning.
 */
enum Sys : std::uint32_t {
    /** No-op trap; measures bare kernel-crossing cost. */
    sysNop = 0,
    /** Voluntarily yield the core. */
    sysYield = 1,
    /** Sleep: arg0 = duration in ticks. */
    sysSleep = 2,
    /**
     * Futex wait: arg0 = simulated address, arg1 = expected value,
     * arg2 = host word pointer. Returns 0 when woken, 1 (EAGAIN) when
     * the value did not match. Trace records carry arg0, so a trace
     * does not depend on where the host placed the word.
     */
    sysFutexWait = 3,
    /**
     * Futex wake: arg0 = simulated address, arg1 = max waiters to
     * wake, arg2 = host word pointer. Returns the number woken.
     */
    sysFutexWake = 4,
    /** perf_event-style counter read: arg0 = counter idx. */
    sysPerfRead = 5,
    /** PAPI-class lighter-weight counter read: arg0 = counter idx. */
    sysPapiRead = 7,
    /**
     * rusage-style accounting read: arg0 = 0 for user jiffies-cycles,
     * 1 for system. Quantum resolution by construction.
     */
    sysRusage = 8,
    /**
     * Submit blocking I/O (network/disk): arg0 = device latency in
     * ticks. The thread sleeps until completion.
     */
    sysIoSubmit = 9,
    /** Returns the calling thread id. */
    sysGetTid = 10,
    /**
     * Reprogram PMU counters (multiplex rotation): arg0 = number of
     * counters rewritten. Charges the MSR write cost; the actual
     * reconfiguration is performed by the caller's host-side session.
     */
    sysPmcConfig = 11,

    /** One past the largest number; not a syscall. */
    sysCount = 12,
};

/** Short syscall name (nullptr for unknown numbers). */
constexpr const char *
sysName(std::uint32_t nr)
{
    switch (static_cast<Sys>(nr)) {
      case sysNop: return "nop";
      case sysYield: return "yield";
      case sysSleep: return "sleep";
      case sysFutexWait: return "futex-wait";
      case sysFutexWake: return "futex-wake";
      case sysPerfRead: return "perf-read";
      case sysPapiRead: return "papi-read";
      case sysRusage: return "rusage";
      case sysIoSubmit: return "io-submit";
      case sysGetTid: return "gettid";
      case sysPmcConfig: return "pmc-config";
      default: return nullptr;
    }
}

} // namespace limit::os

#endif // LIMIT_OS_SYSNO_HH

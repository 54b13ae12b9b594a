#include "prof/kernel_profile.hh"

#include "os/kernel.hh"

namespace limit::prof {

void
SyscallStats::merge(const SyscallStats &other)
{
    calls += other.calls;
    latencyCycles.merge(other.latencyCycles);
}

void
ThreadKernelStats::merge(const ThreadKernelStats &other)
{
    if (name.empty())
        name = other.name;
    userCycles += other.userCycles;
    kernelCycles += other.kernelCycles;
    userInstructions += other.userInstructions;
    kernelInstructions += other.kernelInstructions;
    voluntarySwitches += other.voluntarySwitches;
    involuntarySwitches += other.involuntarySwitches;
    pmis += other.pmis;
    for (const auto &[nr, s] : other.syscalls)
        syscalls[nr].merge(s);
}

ThreadKernelStats &
KernelProfile::thread(sim::ThreadId tid)
{
    return threads_[tid];
}

std::uint64_t
KernelProfile::userCycles() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_)
        n += s.userCycles;
    return n;
}

std::uint64_t
KernelProfile::kernelCycles() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_)
        n += s.kernelCycles;
    return n;
}

std::uint64_t
KernelProfile::userInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_)
        n += s.userInstructions;
    return n;
}

std::uint64_t
KernelProfile::kernelInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_)
        n += s.kernelInstructions;
    return n;
}

std::uint64_t
KernelProfile::pmis() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_)
        n += s.pmis;
    return n;
}

std::uint64_t
KernelProfile::syscallCount() const
{
    std::uint64_t n = 0;
    for (const auto &[t, s] : threads_) {
        for (const auto &[nr, sc] : s.syscalls)
            n += sc.calls;
    }
    return n;
}

void
KernelProfile::merge(const KernelProfile &other)
{
    for (const auto &[tid, s] : other.threads_)
        threads_[tid].merge(s);
}

KernelProfile
buildKernelProfile(os::Kernel &kernel,
                   const std::vector<trace::TraceRecord> &records)
{
    KernelProfile out;

    for (unsigned t = 0; t < kernel.numThreads(); ++t) {
        const os::Thread &th = kernel.thread(t);
        ThreadKernelStats &s = out.thread(th.ctx.tid());
        s.name = th.ctx.name();
        const sim::EventLedger &ledger = th.ctx.ledger();
        s.userCycles =
            ledger.count(sim::EventType::Cycles, sim::PrivMode::User);
        s.kernelCycles =
            ledger.count(sim::EventType::Cycles, sim::PrivMode::Kernel);
        s.userInstructions = ledger.count(sim::EventType::Instructions,
                                          sim::PrivMode::User);
        s.kernelInstructions = ledger.count(
            sim::EventType::Instructions, sim::PrivMode::Kernel);
        s.voluntarySwitches = th.voluntarySwitches;
        s.involuntarySwitches = th.involuntarySwitches;
    }

    // Pair syscall enter/exit per thread. Syscalls do not nest inside
    // one thread, so one open slot per tid suffices; a stale nr (the
    // list lacks the matching record) just discards the pair.
    std::map<sim::ThreadId, std::pair<std::uint64_t, sim::Tick>> open;
    for (const trace::TraceRecord &r : records) {
        switch (r.event) {
          case trace::TraceEvent::SyscallEnter:
            if (r.tid != sim::invalidThread)
                open[r.tid] = {r.a0, r.tick};
            break;
          case trace::TraceEvent::SyscallExit: {
            if (r.tid == sim::invalidThread)
                break;
            auto it = open.find(r.tid);
            if (it == open.end() || it->second.first != r.a0)
                break;
            SyscallStats &sc =
                out.thread(r.tid)
                    .syscalls[static_cast<std::uint32_t>(r.a0)];
            ++sc.calls;
            sc.latencyCycles.add(r.tick - it->second.second);
            open.erase(it);
            break;
          }
          case trace::TraceEvent::PmiDelivered:
            if (r.tid != sim::invalidThread)
                ++out.thread(r.tid).pmis;
            break;
          default:
            break;
        }
    }
    return out;
}

} // namespace limit::prof

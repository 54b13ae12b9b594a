#include "os/kernel.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "fault/controller.hh"
#include "os/sysno.hh"
#include "sim/cost_model.hh"
#include "sim/cpu.hh"
#include "trace/trace.hh"

namespace limit::os {

Kernel::Kernel(sim::Machine &machine, const KernelConfig &config)
    : machine_(machine), config_(config),
      scheduler_(machine.numCores()), perf_(*this), rng_(config.seed)
{
    machine_.setKernel(this);
}

Kernel::~Kernel() = default;

Thread &
Kernel::thread(sim::ThreadId tid)
{
    panic_if(tid >= threads_.size(), "bad thread id ", tid);
    return *threads_[tid];
}

const Thread &
Kernel::thread(sim::ThreadId tid) const
{
    panic_if(tid >= threads_.size(), "bad thread id ", tid);
    return *threads_[tid];
}

Thread &
Kernel::threadOf(sim::GuestContext &ctx)
{
    panic_if(!ctx.osThread, "guest context without a kernel thread");
    return *static_cast<Thread *>(ctx.osThread);
}

sim::ThreadId
Kernel::spawn(std::string name,
              std::function<sim::Task<void>(sim::Guest &)> body)
{
    const sim::CoreId core = nextSpawnCore_;
    nextSpawnCore_ = (nextSpawnCore_ + 1) % machine_.numCores();
    return spawnOn(core, /*pinned=*/false, std::move(name),
                   std::move(body));
}

sim::ThreadId
Kernel::spawnOn(sim::CoreId core, bool pinned, std::string name,
                std::function<sim::Task<void>(sim::Guest &)> body)
{
    fatal_if(core >= machine_.numCores(), "spawn on nonexistent core ",
             core);
    const auto tid = static_cast<sim::ThreadId>(threads_.size());
    threads_.push_back(std::make_unique<Thread>(
        machine_, tid, std::move(name), rng_()));
    Thread &t = *threads_.back();
    t.homeCore = core;
    t.pinned = pinned;
    perf_.initThread(t); // inherit sampling preloads into saved state
    t.ctx.start(std::move(body));
    ++liveThreads_;

    // Same placement policy as a wake: preferred core when idle, any
    // idle core otherwise, else the preferred core's run queue.
    t.state = ThreadState::Runnable;
    wakeThread(t, machine_.cpu(core).now(), 0);
    return tid;
}

void
Kernel::configureCounter(unsigned idx, const sim::CounterConfig &cfg)
{
    for (sim::CoreId c = 0; c < machine_.numCores(); ++c)
        machine_.cpu(c).pmu().configure(idx, cfg);
    for (auto &t : threads_) {
        t->savedCounters[idx] = 0;
        t->perfAccum[idx] = 0;
    }
}

void
Kernel::setPmiHandler(unsigned idx, PmiHandler handler)
{
    panic_if(idx >= sim::maxPmuCounters, "bad counter index ", idx);
    pmiHandlers_[idx] = std::move(handler);
}

void
Kernel::clearPmiHandler(unsigned idx)
{
    panic_if(idx >= sim::maxPmuCounters, "bad counter index ", idx);
    pmiHandlers_[idx] = nullptr;
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

Thread *
Kernel::pickNext(sim::CoreId core)
{
    const sim::ThreadId tid = scheduler_.dequeue(
        core, [this, core](sim::ThreadId cand) {
            return !thread(cand).pinned || thread(cand).homeCore == core;
        });
    return tid == sim::invalidThread ? nullptr : &thread(tid);
}

void
Kernel::deschedule(sim::Cpu &cpu, Thread &t, ThreadState to,
                   bool voluntary)
{
    panic_if(cpu.current() != &t.ctx, "descheduling a non-current thread");

    // The switch cost (and its counter events) is charged while the
    // outgoing thread is still current so both the ledger and the
    // virtualized counters attribute it to the thread being switched
    // out — matching how tick-based kernels account switch time.
    sim::EventDeltas d;
    d[sim::EventType::ContextSwitches] = 1;
    cpu.applyEvents(sim::PrivMode::Kernel, d);
    cpu.kernelWork(sim::contextSwitchCost);

    if (config_.virtualizeCounters) {
        sim::Pmu &pmu = cpu.pmu();
        fault::FaultController *const faults = machine_.faults();
        unsigned enabled = 0;
        for (unsigned i = 0; i < pmu.numCounters(); ++i) {
            if (!pmu.config(i).enabled)
                continue;
            ++enabled;
            std::uint64_t v = perf_.adjustSavedValue(i, pmu.read(i));
            if (faults) {
                const fault::SaveRestoreAction act =
                    faults->onCounterSave(cpu, t.ctx.tid(), i, v);
                if (act.skip)
                    continue; // stale savedCounters[i] persists
                if (act.corrupt)
                    v = act.value;
            }
            t.savedCounters[i] = v;
        }
        // Tagged virtualization (hardware enhancement #3) swaps the
        // counter set in hardware: no per-counter MSR cost.
        if (!pmu.features().taggedVirtualization && enabled > 0) {
            cpu.kernelWork(enabled * sim::counterSwitchCost / 2);
        }
        if (enabled > 0) {
            LIMIT_TRACE(machine_.tracer(), cpu.id(),
                        trace::TraceEvent::CounterSave, cpu.now(),
                        t.ctx.tid(), enabled);
        }
    }

    if (voluntary)
        ++t.voluntarySwitches;
    else
        ++t.involuntarySwitches;
    ++contextSwitches_;
    t.state = to;
    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::ContextSwitch, cpu.now(), t.ctx.tid(),
                static_cast<std::uint64_t>(to), voluntary);
    cpu.setCurrent(nullptr);
}

void
Kernel::installThread(sim::Cpu &cpu, Thread &t)
{
    panic_if(!cpu.idle(), "installing on a busy core");
    panic_if(t.state == ThreadState::Done, "installing a finished thread");

    cpu.setCurrent(&t.ctx);
    t.state = ThreadState::Running;
    t.homeCore = cpu.id();
    if (t.firstScheduledAt == sim::maxTick)
        t.firstScheduledAt = cpu.now();

    if (config_.virtualizeCounters) {
        sim::Pmu &pmu = cpu.pmu();
        fault::FaultController *const faults = machine_.faults();
        unsigned enabled = 0;
        for (unsigned i = 0; i < pmu.numCounters(); ++i) {
            if (pmu.config(i).enabled)
                ++enabled;
        }
        if (!pmu.features().taggedVirtualization && enabled > 0)
            cpu.kernelWork(enabled * sim::counterSwitchCost / 2);
        // Hardware restore happens at the end of the switch path; the
        // restore's own kernel cycles are not visible in the restored
        // values (modelled measurement fuzz for kernel-mode counters).
        for (unsigned i = 0; i < pmu.numCounters(); ++i) {
            if (!pmu.config(i).enabled)
                continue;
            std::uint64_t v = t.savedCounters[i];
            if (faults) {
                const fault::SaveRestoreAction act =
                    faults->onCounterRestore(cpu, t.ctx.tid(), i, v);
                if (act.skip)
                    continue; // stale hardware value persists
                if (act.corrupt)
                    v = act.value;
            }
            pmu.write(i, v);
        }
        if (enabled > 0) {
            LIMIT_TRACE(machine_.tracer(), cpu.id(),
                        trace::TraceEvent::CounterRestore, cpu.now(),
                        t.ctx.tid(), enabled);
        }
    }

    cpu.quantumEnd = cpu.now() + machine_.config().quantum;
}

void
Kernel::wakeThread(Thread &t, sim::Tick earliest, std::uint64_t wake_value)
{
    panic_if(t.state == ThreadState::Running ||
                 t.state == ThreadState::Done,
             "waking thread '", t.ctx.name(), "' in state ",
             threadStateName(t.state));
    t.ctx.result = wake_value;
    t.futexWord = nullptr;
    t.state = ThreadState::Runnable;

    // Prefer the home core when idle, else any idle core (unless
    // pinned), else queue on the home core.
    sim::Cpu *target = nullptr;
    if (machine_.cpu(t.homeCore).idle()) {
        target = &machine_.cpu(t.homeCore);
    } else if (!t.pinned) {
        for (sim::CoreId c = 0; c < machine_.numCores(); ++c) {
            if (machine_.cpu(c).idle()) {
                target = &machine_.cpu(c);
                break;
            }
        }
    }
    if (target) {
        target->syncTimeAtLeast(earliest);
        // The idle core pays the switch-in cost (no deschedule ran);
        // charged after install so it is attributed to the incoming
        // thread's ledger and counters.
        installThread(*target, t);
        target->kernelWork(sim::contextSwitchCost);
    } else {
        scheduler_.enqueue(t.homeCore, t.ctx.tid());
    }
}

void
Kernel::timerTick(sim::Cpu &cpu)
{
    panic_if(cpu.idle(), "timer tick on an idle core");
    Thread &t = threadOf(*cpu.current());
    cpu.kernelWork(sim::timerIrqCost);
    // Tick-based accounting: the whole jiffy goes to whichever mode
    // dominated it — the coarse attribution real tick-based kernels
    // perform, and exactly the imprecision rusage readers inherit.
    const std::uint64_t kcycles =
        t.ctx.ledger().count(sim::EventType::Cycles,
                             sim::PrivMode::Kernel);
    if (kcycles - t.kernelCyclesAtTick > machine_.config().quantum / 2)
        ++t.kernelJiffies;
    else
        ++t.userJiffies;
    t.kernelCyclesAtTick = kcycles;

    Thread *next = pickNext(cpu.id());
    if (next) {
        deschedule(cpu, t, ThreadState::Runnable, /*voluntary=*/false);
        scheduler_.enqueue(cpu.id(), t.ctx.tid());
        installThread(cpu, *next);
    } else {
        cpu.quantumEnd = cpu.now() + machine_.config().quantum;
    }
}

void
Kernel::threadExited(sim::Cpu &cpu, sim::GuestContext &ctx)
{
    Thread &t = threadOf(ctx);
    cpu.kernelWork(sim::exitKernelCost);
    t.exitedAt = cpu.now();
    deschedule(cpu, t, ThreadState::Done, /*voluntary=*/true);
    panic_if(liveThreads_ == 0, "thread exit underflow");
    --liveThreads_;

    Thread *next = pickNext(cpu.id());
    if (next)
        installThread(cpu, *next);
}

bool
Kernel::poll(sim::Tick now)
{
    bool woke = false;
    for (;;) {
        // Drop stale heap tops so the earliest-event pick below only
        // sees live entries.
        while (!sleepers_.empty() &&
               thread(sleepers_.top().second).state !=
                   ThreadState::Sleeping) {
            sleepers_.pop();
        }
        while (!spuriousWakes_.empty()) {
            const Thread &t = thread(spuriousWakes_.top().second);
            if (t.state == ThreadState::Blocked && t.futexWord)
                break;
            spuriousWakes_.pop(); // woken for real in the meantime
        }

        const bool have_sleep = !sleepers_.empty();
        const bool have_spurious = !spuriousWakes_.empty();
        if (!have_sleep && !have_spurious)
            break;
        const bool spurious_first =
            have_spurious &&
            (!have_sleep ||
             spuriousWakes_.top().first < sleepers_.top().first);
        const sim::Tick at = spurious_first ? spuriousWakes_.top().first
                                            : sleepers_.top().first;
        if (now != sim::maxTick && at > now)
            break;
        if (spurious_first) {
            const sim::ThreadId tid = spuriousWakes_.top().second;
            spuriousWakes_.pop();
            deliverSpuriousWake(thread(tid), at);
        } else {
            const sim::ThreadId tid = sleepers_.top().second;
            sleepers_.pop();
            wakeThread(thread(tid), at, 0);
        }
        woke = true;
        if (now == sim::maxTick) {
            // Everything is idle: wake only the earliest event; the
            // machine loop re-polls with real time afterwards.
            break;
        }
    }
    // Tell the run loop when the next poll can matter. A stale heap
    // top only makes the hint conservative (an early, no-op poll).
    armPollHint();
    return woke;
}

void
Kernel::deliverSpuriousWake(Thread &t, sim::Tick at)
{
    auto it = futexQueues_.find(t.futexWord);
    if (it != futexQueues_.end()) {
        auto &queue = it->second;
        queue.erase(std::remove(queue.begin(), queue.end(), t.ctx.tid()),
                    queue.end());
        if (queue.empty())
            futexQueues_.erase(it);
    }
    // A real spurious wakeup is indistinguishable from a futexWake to
    // the waiter: same trace event, same success result.
    LIMIT_TRACE(machine_.tracer(), t.ctx.lastCore,
                trace::TraceEvent::FutexWake, at, t.ctx.tid(),
                t.futexAddr, 1);
    wakeThread(t, at, 0);
}

/*
 * Contract with the batched run loop: every poll() re-arms the hint
 * before returning, and the hint is never later than the earliest
 * sleeper/spurious-wake deadline. Cpu::runUntil treats the hint as a
 * batch ceiling, so an accurate hint is what lets a lone busy core
 * run thousands of ops per scheduler round (maxTick when both heaps
 * are empty); a conservative hint only costs an early no-op poll,
 * never a missed wake.
 */
void
Kernel::armPollHint()
{
    sim::Tick next =
        sleepers_.empty() ? sim::maxTick : sleepers_.top().first;
    if (!spuriousWakes_.empty() && spuriousWakes_.top().first < next)
        next = spuriousWakes_.top().first;
    machine_.setNextPoll(next);
}

// ---------------------------------------------------------------------
// PMIs
// ---------------------------------------------------------------------

void
Kernel::pmuOverflow(sim::Cpu &cpu, unsigned counter, std::uint32_t wraps)
{
    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::PmiDelivered, cpu.now(),
                cpu.current() ? cpu.current()->tid()
                              : sim::invalidThread,
                counter, wraps);
    // Handler first so it observes the true delivery time (skid
    // modelling depends on it); the PMI entry/exit cost is charged to
    // the same thread immediately after.
    if (pmiHandlers_[counter])
        pmiHandlers_[counter](cpu, cpu.current(), counter, wraps);
    cpu.kernelWork(sim::pmiCost);
}

// ---------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------

sim::SyscallOutcome
Kernel::syscall(sim::Cpu &cpu, sim::GuestContext &ctx, std::uint32_t nr,
                const std::array<std::uint64_t, 4> &args)
{
    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::SyscallEnter, cpu.now(), ctx.tid(),
                nr, args[0]);
    const sim::SyscallOutcome out = syscallImpl(cpu, ctx, nr, args);
    // For a blocking syscall the exit is stamped when the core moves
    // on (the caller's result arrives at wake time); the record is
    // still attributed to the calling thread.
    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::SyscallExit, cpu.now(), ctx.tid(),
                nr, out.value);
    return out;
}

sim::SyscallOutcome
Kernel::syscallImpl(sim::Cpu &cpu, sim::GuestContext &ctx,
                    std::uint32_t nr,
                    const std::array<std::uint64_t, 4> &args)
{
    Thread &t = threadOf(ctx);

    if (fault::FaultController *f = machine_.faults()) {
        // Injected slow-path stall: extra kernel work charged to the
        // caller before the handler runs.
        const sim::Tick stall = f->onSyscallEnter(cpu, t.ctx.tid(), nr);
        if (stall > 0)
            cpu.kernelWork(stall);
    }

    switch (static_cast<Sys>(nr)) {
      case sysNop:
        cpu.kernelWork(sim::trivialSyscallCost);
        return {0, false};

      case sysGetTid:
        cpu.kernelWork(sim::trivialSyscallCost);
        return {t.ctx.tid(), false};

      case sysYield:
        return sysYieldImpl(cpu, t);

      case sysSleep:
        return sysSleepImpl(cpu, t, args[0], sim::trivialSyscallCost);

      case sysIoSubmit:
        return sysSleepImpl(cpu, t, args[0], sim::ioSyscallCost);

      case sysFutexWait:
        return sysFutexWaitImpl(cpu, t, args);

      case sysFutexWake:
        return sysFutexWakeImpl(cpu, t, args);

      case sysPerfRead:
        return {perf_.read(cpu, t, static_cast<unsigned>(args[0])),
                false};

      case sysPapiRead:
        return {perf_.readPapi(cpu, t, static_cast<unsigned>(args[0])),
                false};

      case sysPmcConfig:
        cpu.kernelWork(sim::trapEntryCost / 2 +
                       2 * args[0] * sim::msrAccessCost);
        return {0, false};

      case sysRusage: {
        cpu.kernelWork(sim::rusageKernelCost);
        const std::uint64_t jiffies =
            args[0] == 0 ? t.userJiffies : t.kernelJiffies;
        return {jiffies * machine_.config().quantum, false};
      }

      default:
        fatal("unknown syscall ", nr, " from thread '", ctx.name(), "'");
    }
}

sim::SyscallOutcome
Kernel::sysYieldImpl(sim::Cpu &cpu, Thread &t)
{
    cpu.kernelWork(sim::yieldKernelCost);
    Thread *next = pickNext(cpu.id());
    if (!next) {
        cpu.quantumEnd = cpu.now() + machine_.config().quantum;
        return {0, false};
    }
    deschedule(cpu, t, ThreadState::Runnable, /*voluntary=*/true);
    scheduler_.enqueue(cpu.id(), t.ctx.tid());
    installThread(cpu, *next);
    // The result slot is already valid (0); no wake needed.
    t.ctx.result = 0;
    return {0, true};
}

sim::SyscallOutcome
Kernel::sysSleepImpl(sim::Cpu &cpu, Thread &t, sim::Tick duration,
                     sim::Tick cost)
{
    cpu.kernelWork(cost);
    t.wakeTick = cpu.now() + duration;
    sleepers_.emplace(t.wakeTick, t.ctx.tid());
    armPollHint();
    deschedule(cpu, t, ThreadState::Sleeping, /*voluntary=*/true);
    Thread *next = pickNext(cpu.id());
    if (next)
        installThread(cpu, *next);
    return {0, true};
}

sim::SyscallOutcome
Kernel::sysFutexWaitImpl(sim::Cpu &cpu, Thread &t,
                         const std::array<std::uint64_t, 4> &args)
{
    cpu.kernelWork(sim::futexWaitKernelCost);
    const auto *word =
        reinterpret_cast<const std::uint64_t *>(args[2]);
    panic_if(word == nullptr, "futex wait on null word");
    // The op-granular global serialization makes this check atomic
    // with respect to every guest store.
    if (*word != args[1]) {
        LIMIT_TRACE(machine_.tracer(), cpu.id(),
                    trace::TraceEvent::FutexWait, cpu.now(),
                    t.ctx.tid(), args[0], 1 /* EAGAIN */);
        return {1 /* EAGAIN */, false};
    }

    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::FutexWait, cpu.now(), t.ctx.tid(),
                args[0], 0);
    t.futexWord = word;
    t.futexAddr = args[0];
    futexQueues_[word].push_back(t.ctx.tid());
    if (fault::FaultController *f = machine_.faults()) {
        const sim::Tick in = f->onFutexBlock(cpu, t.ctx.tid(), args[0]);
        if (in > 0) {
            spuriousWakes_.emplace(cpu.now() + in, t.ctx.tid());
            armPollHint();
        }
    }
    deschedule(cpu, t, ThreadState::Blocked, /*voluntary=*/true);
    Thread *next = pickNext(cpu.id());
    if (next)
        installThread(cpu, *next);
    return {0, true};
}

sim::SyscallOutcome
Kernel::sysFutexWakeImpl(sim::Cpu &cpu, Thread &,
                         const std::array<std::uint64_t, 4> &args)
{
    cpu.kernelWork(sim::futexWakeKernelCost);
    const auto *word =
        reinterpret_cast<const std::uint64_t *>(args[2]);
    const std::uint64_t max_wake = args[1];

    auto it = futexQueues_.find(word);
    if (it == futexQueues_.end()) {
        LIMIT_TRACE(machine_.tracer(), cpu.id(),
                    trace::TraceEvent::FutexWake, cpu.now(),
                    cpu.current()->tid(), args[0], 0);
        return {0, false};
    }

    std::uint64_t woken = 0;
    auto &queue = it->second;
    while (woken < max_wake && !queue.empty()) {
        const sim::ThreadId tid = queue.front();
        queue.pop_front();
        Thread &w = thread(tid);
        panic_if(w.state != ThreadState::Blocked,
                 "futex queue held thread '", w.ctx.name(),
                 "' in state ", threadStateName(w.state));
        wakeThread(w, cpu.now(), 0);
        ++woken;
    }
    if (queue.empty())
        futexQueues_.erase(it);
    LIMIT_TRACE(machine_.tracer(), cpu.id(),
                trace::TraceEvent::FutexWake, cpu.now(),
                cpu.current()->tid(), args[0], woken);
    return {woken, false};
}

std::string
Kernel::blockedReport() const
{
    std::ostringstream os;
    for (const auto &t : threads_) {
        if (t->state == ThreadState::Done)
            continue;
        os << "  thread " << t->ctx.tid() << " '" << t->ctx.name()
           << "': " << threadStateName(t->state) << '\n';
    }
    return os.str();
}

} // namespace limit::os

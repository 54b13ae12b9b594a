#include "sim/machine.hh"

#include <algorithm>
#include <cstdlib>

#include "base/logging.hh"
#include "sim/kernel_if.hh"

namespace limit::sim {

namespace {

/** Cap on ops per batch; any positive value is bit-identical. */
constexpr unsigned batchMaxOps = 4096;

} // namespace

bool
batchedExecutionDefault()
{
    static const bool forcedOff = [] {
        const char *v = std::getenv("LIMITPP_FORCE_NO_BATCH");
        return v != nullptr && v[0] != '\0' &&
               !(v[0] == '0' && v[1] == '\0');
    }();
    return !forcedOff;
}

Machine::Machine(const MachineConfig &config)
    : config_(config), memory_(&flatMemory_)
{
    fatal_if(config.numCores == 0, "machine needs at least one core");
    cpus_.reserve(config.numCores);
    for (CoreId i = 0; i < config.numCores; ++i) {
        cpus_.push_back(std::make_unique<Cpu>(
            i, *this, config.pmuCounters, config.pmuFeatures));
    }
}

Machine::~Machine() = default;

Cpu &
Machine::cpu(CoreId id)
{
    panic_if(id >= cpus_.size(), "bad core id ", id);
    return *cpus_[id];
}

KernelIf *
Machine::kernel()
{
    panic_if(!kernel_, "no kernel installed on the machine");
    return kernel_;
}

void
Machine::setMemory(MemoryIf *memory)
{
    memory_ = memory ? memory : &flatMemory_;
}

void
Machine::setTimeline(TimelineRecorder *timeline)
{
    timeline_ = timeline;
    if (timeline == nullptr) {
        for (auto &cpu : cpus_)
            cpu->setTimelineLane(nullptr, 0);
        return;
    }
    timeline->attach(numCores());
    for (unsigned i = 0; i < numCores(); ++i)
        cpus_[i]->setTimelineLane(&timeline->lane(i),
                                  timeline->interval());
}

Tick
Machine::run()
{
    panic_if(!kernel_, "Machine::run without a kernel");
    if (config_.batched && batchedExecutionDefault())
        return runBatched();
    return runPerOp();
}

/**
 * Reference scheduler: one op per global round. Kept verbatim as the
 * bit-identity oracle for runBatched() (LIMITPP_FORCE_NO_BATCH, the
 * per-op pass of the CI test job, and the equivalence tests). It never
 * reaches the inline fast path, so it never replays a declared loop.
 */
Tick
Machine::runPerOp()
{
    auto earliest_busy = [this]() -> Cpu * {
        Cpu *best = nullptr;
        for (auto &cpu : cpus_) {
            if (cpu->idle())
                continue;
            if (!best || cpu->now() < best->now())
                best = cpu.get();
        }
        return best;
    };

    for (;;) {
        Cpu *best = earliest_busy();
        // Let timed sleepers whose deadline has passed (relative to
        // global time = the earliest busy core) wake onto idle cores.
        // A wake can install a thread on an idle core with an earlier
        // clock, so the earliest core is re-derived only in that case.
        // The kernel's setNextPoll hint elides the poll call entirely
        // while no sleeper deadline is in range (the common case).
        const Tick now = best ? best->now() : maxTick;
        if (now >= nextPollAt_) {
            nextPollAt_ = 0; // conservative unless the kernel re-arms
            ++work_.polls;
            if (kernel_->poll(now))
                best = earliest_busy();
        }
        if (!best) {
            if (!kernel_->allThreadsDone()) {
                panic("deadlock: live threads but no runnable core\n",
                      kernel_->blockedReport());
            }
            break;
        }
        panic_if(best->now() > config_.hardLimit,
                 "runaway simulation: core ", best->id(),
                 " passed the hard limit at tick ", best->now());
        best->step();
        ++work_.rounds;
        ++work_.guestOps;
    }
    return maxTime();
}

/**
 * Horizon-batched scheduler. Executes the exact op sequence of
 * runPerOp(): the earliest busy core (ties broken by lowest id, as the
 * strict `<` scan does) would keep winning the per-op pick for every
 * tick strictly below the second-earliest core's key, so it may run
 * that far in one tight Cpu::runUntil loop, breaking out on anything
 * that could perturb the global schedule (kernel entry, cross-core-
 * visible ops, a due poll). Busy cores sit in a binary min-heap keyed
 * by (now, id); a batch that stayed core-local only grows the root's
 * key (sift down), while any kernel interaction rebuilds the heap.
 */
Tick
Machine::runBatched()
{
    for (auto &cpu : cpus_)
        cpu->snapshotFastPeek();
    // (now, id)-lexicographic order; strict-weak, heap comparator is
    // the inverse (std::*_heap build max-heaps).
    auto after = [](const Cpu *a, const Cpu *b) {
        return a->now() != b->now() ? a->now() > b->now()
                                    : a->id() > b->id();
    };
    std::vector<Cpu *> heap;
    heap.reserve(cpus_.size());
    auto rebuild = [&] {
        heap.clear();
        for (auto &cpu : cpus_) {
            if (!cpu->idle())
                heap.push_back(cpu.get());
        }
        std::make_heap(heap.begin(), heap.end(), after);
    };
    rebuild();

    for (;;) {
        Cpu *best = heap.empty() ? nullptr : heap.front();
        // Poll timing matches runPerOp: global time is the earliest
        // busy core's clock (maxTick when all cores idle), the hint is
        // cleared before the call, and a wake can change the earliest
        // core, so the ordering is re-derived only on poll() == true.
        const Tick now = best ? best->now() : maxTick;
        if (now >= nextPollAt_) {
            nextPollAt_ = 0; // conservative unless the kernel re-arms
            ++work_.polls;
            if (kernel_->poll(now)) {
                rebuild();
                best = heap.empty() ? nullptr : heap.front();
            }
        }
        if (!best) {
            if (!kernel_->allThreadsDone()) {
                panic("deadlock: live threads but no runnable core\n",
                      kernel_->blockedReport());
            }
            break;
        }

        // Safe horizon: `best` stays the per-op winner while
        // (now, id) < (second.now, second.id), i.e. for all ticks
        // strictly below second.now (+1 when best wins the id tie).
        // The root's children heap[1]/heap[2] are the only candidates
        // for the second-earliest key.
        Tick bound = maxTick;
        if (heap.size() > 1) {
            const Cpu *second = heap[1];
            if (heap.size() > 2 && after(second, heap[2]))
                second = heap[2];
            bound = second->now();
            if (best->id() < second->id() && bound != maxTick)
                ++bound;
        }

        // Pass the poll hint verbatim: 0 ("poll every round") makes
        // runUntil stop after its unconditional first op, exactly the
        // conservative per-op cadence.
        const Cpu::BatchResult res = best->runUntil(
            bound, nextPollAt_, config_.hardLimit, batchMaxOps);
        ++work_.rounds;
        work_.guestOps += res.ops;

        if (res.interacted || best->idle()) {
            // Kernel touched the schedule (wakes, switches, exits,
            // poll re-arm): start the ordering over.
            rebuild();
        } else {
            // Only the root's clock advanced; restore the heap.
            std::pop_heap(heap.begin(), heap.end(), after);
            std::push_heap(heap.begin(), heap.end(), after);
        }
    }
    return maxTime();
}

Tick
Machine::maxTime() const
{
    Tick t = 0;
    for (const auto &cpu : cpus_)
        t = std::max(t, cpu->now());
    return t;
}

} // namespace limit::sim

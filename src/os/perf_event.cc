#include "os/perf_event.hh"

#include <algorithm>

#include "base/logging.hh"
#include "os/kernel.hh"
#include "os/sysno.hh"
#include "sim/cpu.hh"

namespace limit::os {

PerfSubsystem::PerfSubsystem(Kernel &kernel) : kernel_(kernel)
{
}

std::uint64_t
PerfSubsystem::reloadBase(unsigned ctr) const
{
    const sim::Pmu &pmu = kernel_.machine_.cpu(0).pmu();
    const std::uint64_t period = periods_[ctr];
    panic_if(period == 0, "sampling reload with zero period");
    panic_if(pmu.features().counterWidth >= 64,
             "sampling via overflow needs a <64-bit counter");
    return pmu.wrapModulus() - period;
}

void
PerfSubsystem::setupCounting(unsigned ctr, sim::EventType event, bool user,
                             bool kernel_mode)
{
    sim::CounterConfig cfg;
    cfg.event = event;
    cfg.countUser = user;
    cfg.countKernel = kernel_mode;
    cfg.enabled = true;
    cfg.interruptOnOverflow = true;
    kernel_.configureCounter(ctr, cfg);
    modes_[ctr] = PerfMode::Counting;
    periods_[ctr] = 0;
    kernel_.setPmiHandler(
        ctr, [this](sim::Cpu &cpu, sim::GuestContext *ctx, unsigned c,
                    std::uint32_t wraps) {
            onOverflow(cpu, ctx, c, wraps);
        });
}

void
PerfSubsystem::setupSampling(unsigned ctr, sim::EventType event,
                             std::uint64_t period, bool user,
                             bool kernel_mode)
{
    fatal_if(period == 0, "sampling period must be nonzero");
    sim::CounterConfig cfg;
    cfg.event = event;
    cfg.countUser = user;
    cfg.countKernel = kernel_mode;
    cfg.enabled = true;
    cfg.interruptOnOverflow = true;
    kernel_.configureCounter(ctr, cfg);
    modes_[ctr] = PerfMode::Sampling;
    periods_[ctr] = period;

    // Preload every core's counter (and every thread's saved value) so
    // the first overflow fires after `period` events.
    const std::uint64_t base = reloadBase(ctr);
    for (sim::CoreId c = 0; c < kernel_.machine_.numCores(); ++c)
        kernel_.machine_.cpu(c).pmu().write(ctr, base);
    for (auto &t : kernel_.threads_)
        t->savedCounters[ctr] = base;

    kernel_.setPmiHandler(
        ctr, [this](sim::Cpu &cpu, sim::GuestContext *ctx, unsigned c,
                    std::uint32_t wraps) {
            onOverflow(cpu, ctx, c, wraps);
        });
}

void
PerfSubsystem::teardown(unsigned ctr)
{
    sim::CounterConfig off;
    kernel_.configureCounter(ctr, off);
    kernel_.clearPmiHandler(ctr);
    modes_[ctr] = PerfMode::Off;
    periods_[ctr] = 0;
}

std::uint64_t
PerfSubsystem::readValue(sim::Cpu &cpu, Thread &thread, unsigned ctr)
{
    // Fold any PMI that the read's own kernel work raised into the
    // 64-bit accumulation before summing (the kernel reads counters
    // with overflow processing serialized, so this path is race-free
    // — the precision the heavyweight syscall buys).
    cpu.drainOverflows();
    return thread.perfAccum[ctr] + cpu.pmu().read(ctr);
}

std::uint64_t
PerfSubsystem::read(sim::Cpu &cpu, Thread &thread, unsigned ctr)
{
    panic_if(modes_[ctr] != PerfMode::Counting,
             "perf read of a counter not in counting mode");
    cpu.kernelWork(cpu.costs().perfReadKernelCost);
    return readValue(cpu, thread, ctr);
}

std::uint64_t
PerfSubsystem::readPapi(sim::Cpu &cpu, Thread &thread, unsigned ctr)
{
    panic_if(modes_[ctr] != PerfMode::Counting,
             "papi read of a counter not in counting mode");
    cpu.kernelWork(cpu.costs().papiKernelCost);
    return readValue(cpu, thread, ctr);
}

void
PerfSubsystem::initThread(Thread &thread) const
{
    for (unsigned i = 0; i < sim::maxPmuCounters; ++i) {
        if (modes_[i] == PerfMode::Sampling)
            thread.savedCounters[i] = reloadBase(i);
    }
}

std::uint64_t
PerfSubsystem::adjustSavedValue(unsigned ctr, std::uint64_t value) const
{
    if (modes_[ctr] != PerfMode::Sampling)
        return value;
    const std::uint64_t base = reloadBase(ctr);
    if (value >= base)
        return value; // still armed
    return base + value % periods_[ctr];
}

void
PerfSubsystem::onOverflow(sim::Cpu &cpu, sim::GuestContext *ctx,
                          unsigned ctr, std::uint32_t wraps)
{
    switch (modes_[ctr]) {
      case PerfMode::Counting: {
        if (!ctx) {
            // Overflow with no thread on the core (idle-time kernel
            // work): nothing to attribute it to.
            return;
        }
        Thread &t = *static_cast<Thread *>(ctx->osThread);
        const std::uint64_t modulus = cpu.pmu().wrapModulus();
        t.perfAccum[ctr] += static_cast<std::uint64_t>(wraps) * modulus;
        break;
      }
      case PerfMode::Sampling: {
        // One op may retire more events than the sampling period (the
        // simulator's op granularity coalesces what real hardware
        // would deliver as several PMIs): account for every elapsed
        // period, not just the counter wrap itself. Two hazards make
        // this careful: (a) several PMIs for the same counter can
        // queue up within one long op (syscall kernel chains), so a
        // later invocation may find the counter already reloaded by
        // an earlier one (value back above the reload base — treat
        // the PMI as exactly its reported wraps); (b) pathological
        // period/op-size combinations are capped to keep a stale PMI
        // from fabricating unbounded samples.
        const sim::Tick pmi_time = cpu.now(); // before handler work
        const std::uint64_t period = periods_[ctr];
        const std::uint64_t base = reloadBase(ctr);
        const std::uint64_t value = cpu.pmu().read(ctr);
        std::uint64_t elapsed;
        if (value >= base) {
            elapsed = wraps; // stale PMI: already reloaded earlier
        } else {
            elapsed = wraps + value / period;
        }
        elapsed = std::min<std::uint64_t>(elapsed, 1024);

        cpu.kernelWork(cpu.costs().sampleRecordCost * elapsed);
        // With no thread running at PMI time the samples are lost.
        if (ctx) {
            // Skid model: when the region changed within the skid
            // window before the PMI fired, the event that overflowed
            // the counter likely predates the change — attribute to
            // the previous region.
            sim::RegionId region = ctx->currentRegion();
            if (skid_ > 0 &&
                pmi_time - ctx->regionChangedAt < skid_) {
                region = ctx->prevRegion;
            }
            for (std::uint64_t i = 0; i < elapsed; ++i)
                samples_.push_back({pmi_time, ctx->tid(), region});
        }
        // Reload so the next overflow fires one period later; keep
        // the residue past the last period boundary. A counter that
        // is already re-armed (stale PMI) is left untouched.
        if (value < base)
            cpu.pmu().write(ctr, base + value % period);
        break;
      }
      case PerfMode::Off:
        break;
    }
}

} // namespace limit::os

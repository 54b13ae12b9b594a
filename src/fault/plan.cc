#include "fault/plan.hh"

#include <cstdlib>
#include <sstream>

#include "base/logging.hh"
#include "sim/cpu.hh"
#include "sim/machine.hh"
#include "trace/trace.hh"

namespace limit::fault {

std::string_view
siteName(Site s)
{
    switch (s) {
      case Site::PreemptRead: return "preempt-read";
      case Site::OverflowRead: return "overflow-read";
      case Site::DropPmi: return "drop-pmi";
      case Site::DelayPmi: return "delay-pmi";
      case Site::SkipSave: return "skip-save";
      case Site::CorruptSave: return "corrupt-save";
      case Site::SkipRestore: return "skip-restore";
      case Site::CorruptRestore: return "corrupt-restore";
      case Site::SpuriousWake: return "spurious-wake";
      case Site::StallSyscall: return "stall-syscall";
      default: return "?";
    }
}

bool
parseSite(std::string_view text, Site &out)
{
    for (unsigned s = 0; s < numSites; ++s) {
        if (text == siteName(static_cast<Site>(s))) {
            out = static_cast<Site>(s);
            return true;
        }
    }
    return false;
}

namespace {

bool
parseUint(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    const std::string buf(text);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return false;
    // strtoull silently negates "-1"; the grammar has no negatives.
    if (buf[0] == '-' || buf[0] == '+')
        return false;
    out = v;
    return true;
}

bool
applyKey(FaultSpec &spec, std::string_view key, std::string_view val,
         std::string &error)
{
    std::uint64_t v = 0;
    if (!parseUint(val, v)) {
        error = "bad value '" + std::string(val) + "' for key '" +
                std::string(key) + "' (unsigned integer expected)";
        return false;
    }
    if (key == "step") {
        if (v >= numReadSteps) {
            error = "step must be < " + std::to_string(numReadSteps);
            return false;
        }
        spec.step = static_cast<unsigned>(v);
    } else if (key == "ctr") {
        if (v >= sim::maxPmuCounters) {
            error = "ctr must be < " +
                    std::to_string(sim::maxPmuCounters);
            return false;
        }
        spec.ctr = static_cast<unsigned>(v);
    } else if (key == "value") {
        spec.value = v;
    } else if (key == "margin") {
        if (v == 0) {
            error = "margin must be >= 1";
            return false;
        }
        spec.margin = v;
    } else if (key == "ticks") {
        spec.ticks = v;
    } else if (key == "nr") {
        spec.nr = static_cast<std::uint32_t>(v);
    } else if (key == "nth") {
        spec.nth = v;
    } else {
        error = "unknown key '" + std::string(key) +
                "' (expected step|ctr|value|margin|ticks|nr|nth)";
        return false;
    }
    return true;
}

bool
parseItem(std::string_view item, FaultSpec &spec, std::string &error)
{
    std::size_t pos = item.find(':');
    const std::string_view name = item.substr(0, pos);
    if (!parseSite(name, spec.site)) {
        std::string all;
        for (unsigned s = 0; s < numSites; ++s) {
            if (s > 0)
                all += '|';
            all += siteName(static_cast<Site>(s));
        }
        error = "unknown fault site '" + std::string(name) +
                "' (expected " + all + ")";
        return false;
    }
    while (pos != std::string_view::npos) {
        const std::string_view rest = item.substr(pos + 1);
        const std::size_t next = rest.find(':');
        const std::string_view kv = rest.substr(0, next);
        const std::size_t eq = kv.find('=');
        if (eq == std::string_view::npos) {
            error = "expected key=value after '" + std::string(name) +
                    ":', got '" + std::string(kv) + "'";
            return false;
        }
        if (!applyKey(spec, kv.substr(0, eq), kv.substr(eq + 1), error))
            return false;
        pos = next == std::string_view::npos
            ? std::string_view::npos
            : pos + 1 + next;
    }
    return true;
}

} // namespace

bool
Plan::parse(std::string_view text, Plan &out, std::string &error)
{
    out = Plan();
    if (text.empty()) {
        error = "empty fault plan";
        return false;
    }
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t sep = text.find(';', start);
        const std::string_view item = text.substr(
            start, sep == std::string_view::npos ? std::string_view::npos
                                                 : sep - start);
        if (item.empty()) {
            error = "empty fault item (stray ';'?)";
            return false;
        }
        FaultSpec spec;
        if (!parseItem(item, spec, error))
            return false;
        out.add(spec);
        if (sep == std::string_view::npos)
            break;
        start = sep + 1;
    }
    return true;
}

std::string
Plan::str() const
{
    const FaultSpec def; // per-key defaults; only deviations print
    std::ostringstream os;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const FaultSpec &s = specs_[i];
        if (i > 0)
            os << ';';
        os << siteName(s.site);
        if (s.step != def.step)
            os << ":step=" << s.step;
        if (s.ctr != def.ctr)
            os << ":ctr=" << s.ctr;
        if (s.value != def.value)
            os << ":value=" << s.value;
        if (s.margin != def.margin)
            os << ":margin=" << s.margin;
        if (s.ticks != def.ticks)
            os << ":ticks=" << s.ticks;
        if (s.nr != def.nr)
            os << ":nr=" << s.nr;
        if (s.nth != def.nth)
            os << ":nth=" << s.nth;
    }
    return os.str();
}

// ---------------------------------------------------------------------
// PlanController
// ---------------------------------------------------------------------

PlanController::PlanController(sim::Machine &machine, Plan plan)
    : machine_(machine)
{
    armed_.reserve(plan.specs().size());
    for (const FaultSpec &s : plan.specs()) {
        panic_if(s.site == Site::NumSites,
                 "fault spec without a site in plan");
        armed_.push_back({s, 0, false});
    }
}

bool
PlanController::due(Armed &a)
{
    ++a.hits;
    if (a.spec.nth == 0)
        return true;
    if (a.fired || a.hits != a.spec.nth)
        return false;
    a.fired = true;
    return true;
}

void
PlanController::note(sim::CoreId core, sim::Tick tick, sim::ThreadId tid,
                     Site site, std::uint64_t arg)
{
    ++injected_;
    ++injectedAt_[static_cast<unsigned>(site)];
    LIMIT_TRACE(machine_.tracer(), core,
                trace::TraceEvent::FaultInjected, tick, tid,
                static_cast<std::uint64_t>(site), arg);
}

void
PlanController::onPecReadStep(sim::GuestContext &ctx, unsigned ctr,
                              ReadStep step)
{
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.ctr != ctr || s.step != static_cast<unsigned>(step))
            continue;
        if (s.site == Site::PreemptRead) {
            if (!due(a))
                continue;
            // End the quantum now: the timer fires right after the
            // *next* op of the read sequence commits, descheduling the
            // reader inside the window (provided a competitor thread
            // is runnable on the core).
            sim::Cpu &cpu = machine_.cpu(ctx.lastCore);
            cpu.quantumEnd = cpu.now();
            note(cpu.id(), cpu.now(), ctx.tid(), s.site,
                 static_cast<std::uint64_t>(step));
        } else if (s.site == Site::OverflowRead) {
            if (!due(a))
                continue;
            // Arm the counter `margin` events short of wrapping, so
            // the overflow lands inside the window. The artificial
            // jump is remembered as bias: a correct policy now reads
            // ledger + bias, never less.
            sim::Cpu &cpu = machine_.cpu(ctx.lastCore);
            sim::Pmu &pmu = cpu.pmu();
            const std::uint64_t before = pmu.read(s.ctr);
            const std::uint64_t armval =
                (pmu.valueMask() - (s.margin - 1)) & pmu.valueMask();
            pmu.write(s.ctr, armval);
            bias_[s.ctr] += armval - before; // wrapping on purpose
            note(cpu.id(), cpu.now(), ctx.tid(), s.site, s.margin);
        }
    }
}

PmiAction
PlanController::onPmiDeliver(sim::Cpu &cpu, unsigned ctr,
                             std::uint32_t wraps)
{
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.ctr != ctr ||
            (s.site != Site::DropPmi && s.site != Site::DelayPmi)) {
            continue;
        }
        if (!due(a))
            continue;
        const sim::ThreadId tid =
            cpu.current() ? cpu.current()->tid() : sim::invalidThread;
        if (s.site == Site::DropPmi) {
            note(cpu.id(), cpu.now(), tid, s.site, wraps);
            return {.drop = true};
        }
        note(cpu.id(), cpu.now(), tid, s.site, s.ticks);
        return {.drop = false, .delay = s.ticks};
    }
    return {};
}

SaveRestoreAction
PlanController::onCounterSave(sim::Cpu &cpu, sim::ThreadId tid,
                              unsigned ctr, std::uint64_t value)
{
    (void)value;
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.ctr != ctr ||
            (s.site != Site::SkipSave && s.site != Site::CorruptSave)) {
            continue;
        }
        if (!due(a))
            continue;
        if (s.site == Site::SkipSave) {
            note(cpu.id(), cpu.now(), tid, s.site, ctr);
            return {.skip = true};
        }
        note(cpu.id(), cpu.now(), tid, s.site, s.value);
        return {.skip = false, .corrupt = true, .value = s.value};
    }
    return {};
}

SaveRestoreAction
PlanController::onCounterRestore(sim::Cpu &cpu, sim::ThreadId tid,
                                 unsigned ctr, std::uint64_t value)
{
    (void)value;
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.ctr != ctr || (s.site != Site::SkipRestore &&
                             s.site != Site::CorruptRestore)) {
            continue;
        }
        if (!due(a))
            continue;
        if (s.site == Site::SkipRestore) {
            note(cpu.id(), cpu.now(), tid, s.site, ctr);
            return {.skip = true};
        }
        note(cpu.id(), cpu.now(), tid, s.site, s.value);
        return {.skip = false, .corrupt = true, .value = s.value};
    }
    return {};
}

sim::Tick
PlanController::onSyscallEnter(sim::Cpu &cpu, sim::ThreadId tid,
                               std::uint32_t nr)
{
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.site != Site::StallSyscall ||
            (s.nr != anySyscall && s.nr != nr)) {
            continue;
        }
        if (!due(a))
            continue;
        note(cpu.id(), cpu.now(), tid, s.site, s.ticks);
        return s.ticks;
    }
    return 0;
}

sim::Tick
PlanController::onFutexBlock(sim::Cpu &cpu, sim::ThreadId tid,
                             sim::Addr addr)
{
    for (Armed &a : armed_) {
        const FaultSpec &s = a.spec;
        if (s.site != Site::SpuriousWake)
            continue;
        if (!due(a))
            continue;
        note(cpu.id(), cpu.now(), tid, s.site, addr);
        return s.ticks;
    }
    return 0;
}

} // namespace limit::fault

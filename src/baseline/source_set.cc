#include "baseline/source_set.hh"

#include "baseline/readers.hh"

namespace limit::baseline {

namespace {

SourceSpec
pecSpec(pec::OverflowPolicy policy)
{
    return {std::string("pec/") + pec::policyName(policy),
            [policy](os::Kernel &kernel, unsigned ctr,
                     sim::EventType event, bool user, bool kernel_mode) {
                pec::PecConfig pc;
                pc.policy = policy;
                SourceInstance inst;
                inst.session =
                    std::make_unique<pec::PecSession>(kernel, pc);
                inst.session->addEvent(ctr, event, user, kernel_mode);
                inst.source =
                    std::make_unique<PecReader>(*inst.session);
                return inst;
            }};
}

} // namespace

std::vector<SourceSpec>
standardSources()
{
    std::vector<SourceSpec> specs;
    specs.push_back(pecSpec(pec::OverflowPolicy::KernelFixup));
    specs.push_back(pecSpec(pec::OverflowPolicy::DoubleCheck));
    specs.push_back(pecSpec(pec::OverflowPolicy::NaiveSum));
    specs.push_back(
        {"papi-like", [](os::Kernel &kernel, unsigned ctr,
                         sim::EventType event, bool user,
                         bool kernel_mode) {
             kernel.perf().setupCounting(ctr, event, user, kernel_mode);
             SourceInstance inst;
             inst.source = std::make_unique<PapiReader>();
             return inst;
         }});
    specs.push_back(
        {"perf-syscall", [](os::Kernel &kernel, unsigned ctr,
                            sim::EventType event, bool user,
                            bool kernel_mode) {
             kernel.perf().setupCounting(ctr, event, user, kernel_mode);
             SourceInstance inst;
             inst.source = std::make_unique<PerfSyscallReader>();
             return inst;
         }});
    specs.push_back(
        {"rusage", [](os::Kernel &, unsigned, sim::EventType, bool,
                      bool) {
             // rusage needs no counter programming: it reads the
             // scheduler's jiffy accounting.
             SourceInstance inst;
             inst.source = std::make_unique<RusageReader>();
             return inst;
         }});
    return specs;
}

} // namespace limit::baseline

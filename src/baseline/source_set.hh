/**
 * @file
 * The standard roster of counter sources, ready to instantiate.
 *
 * E1/E3/E12 all want the same thing: "for each access method, set up
 * whatever that method needs on this kernel, then hand me a
 * CounterSource". A SourceSpec packages the label and that setup;
 * standardSources() returns the roster in the canonical report order
 * (three PEC policies, then papi, perf-syscall, rusage), so adding a
 * method extends every comparison bench at once.
 */

#ifndef LIMIT_BASELINE_SOURCE_SET_HH
#define LIMIT_BASELINE_SOURCE_SET_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/counter_source.hh"
#include "os/kernel.hh"
#include "pec/session.hh"

namespace limit::baseline {

/**
 * One instantiated access method. The session member keeps the PEC
 * machinery (counter programming, PMI handler) alive for the
 * source's lifetime; it is null for methods that only need the
 * kernel's perf subsystem.
 */
struct SourceInstance
{
    std::unique_ptr<pec::PecSession> session;
    std::unique_ptr<limit::CounterSource> source;
};

/** A named way of building one access method on a kernel. */
struct SourceSpec
{
    /** Stable label (matches CounterSource::name() of the result). */
    std::string label;
    /**
     * Program counter `ctr` to count `event` (in the given modes) the
     * way this method needs, and return the source reading it.
     */
    std::function<SourceInstance(os::Kernel &kernel, unsigned ctr,
                                 sim::EventType event, bool user,
                                 bool kernel_mode)>
        make;
};

/** The canonical six-method roster. */
std::vector<SourceSpec> standardSources();

} // namespace limit::baseline

#endif // LIMIT_BASELINE_SOURCE_SET_HH

/**
 * @file
 * Sensitivity/causality bottleneck engine.
 *
 * Given a ParamSpace and a workload, analyze() measures the baseline
 * machine and every one-factor-at-a-time lattice point (each averaged
 * over the requested seeds), computes finite-difference derivatives
 * of the workload's work metric along each axis, and returns a ranked
 * prof::Report SensitivitySection: the axis whose perturbation moves
 * the work metric the most is the bottleneck. All (point, seed) runs
 * fan out through analysis::ParallelRunner, so results are
 * bit-identical for any --jobs value.
 */

#ifndef LIMIT_ANALYSIS_SENSITIVITY_ENGINE_HH
#define LIMIT_ANALYSIS_SENSITIVITY_ENGINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "analysis/sensitivity/param_space.hh"
#include "prof/report.hh"

namespace limit::analysis::sensitivity {

/** What one workload run measured on one machine configuration. */
struct Measurement
{
    /**
     * The primary "how much got done" metric (iterations, txns,
     * exact counter reads survived, ...). More is better; the
     * ranking is driven by how far perturbations move it.
     */
    double work = 0;
    /** Secondary PEC-measured metrics carried into the report. */
    std::map<std::string, double> metrics;
};

/**
 * A workload under analysis: build a machine from `options`, run it
 * with `seed`, return what it measured. Called concurrently from
 * runner workers — everything it touches must be call-local.
 */
using WorkloadFn =
    std::function<Measurement(const BundleOptions &options,
                              std::uint64_t seed)>;

/** Engine knobs. */
struct Options
{
    /** Section name in the report (e.g. "stream", "overflow"). */
    std::string scenario = "workload";
    /** Label for the work metric column (e.g. "iterations"). */
    std::string workMetric = "work";
    /** Seeds per lattice point (averaged). */
    unsigned seeds = 1;
    /** Runner fan-out; 0 = one per hardware thread, 1 = inline. */
    unsigned jobs = 1;
};

/**
 * Measure the whole lattice and rank the axes.
 *
 * Derivative semantics per axis level L with base value B:
 *   workRelPct = 100 * (work(L) - work(B)) / work(B)
 *   elasticity = (Δwork / work(B)) / (Δparam / B)
 * Score (ranking key) = max |workRelPct| over the axis's levels;
 * ties keep ParamSpace insertion order (stable sort).
 *
 * A job that throws fails the whole analysis the way
 * ParallelRunner::map reports failures.
 */
prof::Report::SensitivitySection
analyze(const ParamSpace &space, const WorkloadFn &workload,
        const Options &options);

/**
 * analyze() plus report packaging: stamps the
 * "limitpp-sensitivity-v1" schema, scenario/lattice metadata, and the
 * base machine's mem::configFields into `report`, then attaches the
 * ranked section. Multiple scenarios may be layered into one report.
 */
void analyzeInto(prof::Report &report, const ParamSpace &space,
                 const WorkloadFn &workload, const Options &options);

} // namespace limit::analysis::sensitivity

#endif // LIMIT_ANALYSIS_SENSITIVITY_ENGINE_HH

/**
 * @file
 * First-class machine parameter space for sensitivity analysis.
 *
 * An Axis names one machine-configuration knob (L1 size, memory
 * latency, counter width, ...) together with how to read its value
 * out of a BundleOptions and how to apply a perturbed value through
 * the BundleOptions::Builder. A ParamSpace is a base configuration
 * plus a set of axes with alternative levels; points() expands it
 * one-factor-at-a-time into fully validated variant BundleOptions,
 * each derived from the base via Builder::from — so every lattice
 * point passes exactly the same build()-time validation a hand-
 * written bench configuration would.
 */

#ifndef LIMIT_ANALYSIS_SENSITIVITY_PARAM_SPACE_HH
#define LIMIT_ANALYSIS_SENSITIVITY_PARAM_SPACE_HH

#include <functional>
#include <string>
#include <vector>

#include "analysis/bundle.hh"

namespace limit::analysis::sensitivity {

/** One machine-configuration knob with alternative levels to probe. */
struct Axis
{
    /** Stable identifier used in reports ("l1_size", "pmu_width"). */
    std::string name;
    /** Unit label for tables ("bytes", "cycles", "bits", "entries"). */
    std::string unit;
    /** Read the knob's current value out of an options struct. */
    std::function<double(const BundleOptions &)> read;
    /** Apply a perturbed value through the validating builder. */
    std::function<void(BundleOptions::Builder &, double)> apply;
    /** Alternative values to measure (the base value is implicit). */
    std::vector<double> levels;

    Axis &
    with(std::vector<double> values)
    {
        levels = std::move(values);
        return *this;
    }

    /** @name Built-in axes over the standard machine knobs @{ */
    static Axis l1Size(std::vector<double> levels);
    static Axis l1Latency(std::vector<double> levels);
    static Axis l2Latency(std::vector<double> levels);
    static Axis memLatency(std::vector<double> levels);
    static Axis tlbEntries(std::vector<double> levels);
    static Axis counterWidth(std::vector<double> levels);
    static Axis quantum(std::vector<double> levels);
    static Axis cores(std::vector<double> levels);
    /** @} */
};

/**
 * A base machine plus perturbation axes. Expansion is deliberately
 * one-factor-at-a-time (OAT): each point varies exactly one axis to
 * one of its levels while every other knob stays at the base value,
 * which is what makes the finite-difference derivatives in
 * sensitivity::analyze attributable to a single cause.
 */
class ParamSpace
{
  public:
    /** One expanded lattice point: axis `axisIndex` set to `value`. */
    struct Point
    {
        /** Index into axes() of the perturbed axis. */
        std::size_t axisIndex = 0;
        /** Index into that axis's levels. */
        std::size_t levelIndex = 0;
        /** The perturbed parameter value. */
        double value = 0;
        /** Fully derived + validated variant configuration. */
        BundleOptions options;
    };

    explicit ParamSpace(BundleOptions base) : base_(std::move(base)) {}

    /** Add one perturbation axis (kept in insertion order). */
    ParamSpace &
    add(Axis axis)
    {
        axes_.push_back(std::move(axis));
        return *this;
    }

    const BundleOptions &base() const { return base_; }
    const std::vector<Axis> &axes() const { return axes_; }

    /**
     * Expand the OAT lattice in deterministic order (axes in
     * insertion order, levels in declaration order). Fatals, via the
     * builder, on any level that produces an impossible machine.
     */
    std::vector<Point> points() const;

  private:
    BundleOptions base_;
    std::vector<Axis> axes_;
};

} // namespace limit::analysis::sensitivity

#endif // LIMIT_ANALYSIS_SENSITIVITY_PARAM_SPACE_HH

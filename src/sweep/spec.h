// Declarative experiment grids. A SweepSpec is a base
// (TraceSetConfig, ExperimentConfig) pair plus an ordered list of axes;
// each axis value is a named mutation of the cell. Expansion takes the
// cross product of all axis values in odometer order (first axis
// outermost), applies per-cell filters, and assigns dense indices — the
// canonical cell order every runner and sink preserves regardless of how
// many threads execute the sweep.
#ifndef STAGEDCMP_SWEEP_SPEC_H_
#define STAGEDCMP_SWEEP_SPEC_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace stagedcmp::sweep {

/// One point of an experiment grid: the fully-resolved configs plus the
/// axis value names that produced it (parallel to SweepSpec::axis_names).
struct Cell {
  size_t index = 0;                 ///< dense position in canonical order
  std::vector<std::string> values;  ///< one value name per axis
  harness::TraceSetConfig trace;
  harness::ExperimentConfig exp;

  /// Value name of the axis called `axis` ("" if the spec has no such axis).
  const std::string& Value(const std::vector<std::string>& axis_names,
                           const std::string& axis) const;
};

/// (axis, value) pairs naming the reference point a figure normalizes
/// to, e.g. {{"camp", "FC"}} for LC/FC ratios.
using Baseline = std::vector<std::pair<std::string, std::string>>;

/// Labels of the cell a cell with labels `values` is normalized to: the
/// same labels with each baseline axis set to its baseline value. False
/// (and `out` unspecified) when a baseline axis is not in `axis_names`.
bool BaselineLabels(const std::vector<std::string>& axis_names,
                    const Baseline& baseline,
                    const std::vector<std::string>& values,
                    std::vector<std::string>* out);

class SweepSpec {
 public:
  /// Mutates the cell for one axis value. Mutators run in axis order and
  /// may branch on state set by earlier axes.
  using Mutator = std::function<void(Cell&)>;
  /// Keeps a cell iff it returns true (applied after all mutators).
  using Filter = std::function<bool(const Cell&)>;
  using AxisValue = std::pair<std::string, Mutator>;

  SweepSpec() = default;
  explicit SweepSpec(std::string name, std::string description = "")
      : name_(std::move(name)), description_(std::move(description)) {}

  /// Base configs copied into every cell before axis mutators run.
  harness::TraceSetConfig base_trace;
  harness::ExperimentConfig base_exp;
  /// The table sink's UIPC/base column divides each cell's UIPC by its
  /// baseline sibling's (see BaselineLabels). Empty = no such column.
  Baseline baseline;

  SweepSpec& AddAxis(std::string axis_name, std::vector<AxisValue> values);
  SweepSpec& AddFilter(Filter f);

  /// Cross-product expansion: filters applied, indices dense and ordered
  /// with the first axis outermost. Deterministic for a fixed spec.
  std::vector<Cell> Expand() const;

  /// Number of cells before filtering (product of axis sizes).
  size_t CrossProductSize() const;

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  const std::vector<std::string>& axis_names() const { return axis_names_; }

 private:
  std::string name_;
  std::string description_;
  std::vector<std::string> axis_names_;  ///< parallel to axes_
  std::vector<std::vector<AxisValue>> axes_;
  std::vector<Filter> filters_;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_SPEC_H_

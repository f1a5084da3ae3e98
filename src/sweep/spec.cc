#include "sweep/spec.h"

#include <cstdio>
#include <cstdlib>

namespace stagedcmp::sweep {

const std::string& Cell::Value(const std::vector<std::string>& axis_names,
                               const std::string& axis) const {
  static const std::string kEmpty;
  for (size_t i = 0; i < axis_names.size() && i < values.size(); ++i) {
    if (axis_names[i] == axis) return values[i];
  }
  return kEmpty;
}

bool BaselineLabels(const std::vector<std::string>& axis_names,
                    const Baseline& baseline,
                    const std::vector<std::string>& values,
                    std::vector<std::string>* out) {
  *out = values;
  for (const auto& [axis, value] : baseline) {
    size_t i = 0;
    while (i < axis_names.size() && axis_names[i] != axis) ++i;
    if (i >= out->size()) return false;
    (*out)[i] = value;
  }
  return true;
}

SweepSpec& SweepSpec::AddAxis(std::string axis_name,
                              std::vector<AxisValue> values) {
  if (values.empty()) {
    // Hard error (not assert): Expand() would index an empty vector.
    std::fprintf(stderr, "sweep spec '%s': axis '%s' has no values\n",
                 name_.c_str(), axis_name.c_str());
    std::abort();
  }
  axis_names_.push_back(std::move(axis_name));
  axes_.push_back(std::move(values));
  return *this;
}

SweepSpec& SweepSpec::AddFilter(Filter f) {
  filters_.push_back(std::move(f));
  return *this;
}

size_t SweepSpec::CrossProductSize() const {
  size_t n = 1;
  for (const auto& values : axes_) n *= values.size();
  return n;
}

std::vector<Cell> SweepSpec::Expand() const {
  std::vector<Cell> out;
  out.reserve(CrossProductSize());

  // Odometer over axis value indices, first axis outermost (slowest).
  // A spec with no axes expands to the single base cell.
  std::vector<size_t> odo(axes_.size(), 0);
  while (true) {
    Cell cell;
    cell.trace = base_trace;
    cell.exp = base_exp;
    cell.values.reserve(axes_.size());
    for (size_t i = 0; i < axes_.size(); ++i) {
      const AxisValue& v = axes_[i][odo[i]];
      cell.values.push_back(v.first);
      if (v.second) v.second(cell);
    }

    bool keep = true;
    for (const Filter& f : filters_) {
      if (!f(cell)) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(std::move(cell));

    // Increment from the last (innermost) axis; carry out => done.
    size_t i = axes_.size();
    while (i > 0 && ++odo[i - 1] == axes_[i - 1].size()) {
      odo[i - 1] = 0;
      --i;
    }
    if (i == 0) break;
  }

  for (size_t i = 0; i < out.size(); ++i) out[i].index = i;
  return out;
}

}  // namespace stagedcmp::sweep

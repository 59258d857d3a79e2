#include "src/analysis/cost_model.h"

#include <cstdio>

#include "src/common/str_util.h"

namespace idivm {

double InsertBoundSpeedup(double a, double k) { return a / (a + k); }

std::string FormatModelRow(const std::string& label, double predicted,
                           double measured) {
  char buf[160];
  const double err = predicted == 0
                         ? 0
                         : (measured - predicted) / predicted * 100.0;
  std::snprintf(buf, sizeof(buf),
                "%-28s predicted %12.1f  measured %12.1f  (%+.1f%%)",
                label.c_str(), predicted, measured, err);
  return buf;
}

}  // namespace idivm

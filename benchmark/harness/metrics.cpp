#include "metrics.hpp"

#include <cmath>

#include "support/error.hpp"

namespace lacc_bench {

Report::Report(std::span<const MetricDef> first,
               std::span<const MetricDef> second) {
  for (const auto defs : {first, second})
    for (const MetricDef& d : defs) values_.emplace_back(d, 0.0);
}

void Report::set(std::string_view name, double value) {
  if (!std::isfinite(value))
    throw lacc::Error("metric " + std::string(name) + " is not finite");
  for (auto& [def, v] : values_)
    if (name == def.name) {
      v = value;
      return;
    }
  throw lacc::Error("unknown metric " + std::string(name));
}

}  // namespace lacc_bench

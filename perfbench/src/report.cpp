#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(
                       std::min(index, values.size() - 1));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint when that
  // is larger than ours.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::metric(std::string name, double value, std::string unit) {
  check(std::isfinite(value), name + " is a finite number");
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    char value[64];
    // %.17g keeps every digit of the measured double. JSON has no
    // non-finite numbers; metric() already failed the run for one.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

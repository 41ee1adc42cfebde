// Result sheet of one benchmark run: named metrics with units, the output
// checks, the attempted/failed execution tally, and the one-line JSON the
// run ends with. Also the small statistics and timing helpers every
// workload shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

class Report {
 public:
  void metric(std::string name, double value, std::string unit);

  /// Records an output check; a failed one marks the run incorrect and is
  /// explained on stderr.
  void check(bool ok, const std::string& what);

  void add_attempted(std::uint64_t executions) { attempted_ += executions; }
  void add_failed(std::uint64_t executions) { failed_ += executions; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

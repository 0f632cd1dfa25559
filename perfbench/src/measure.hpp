// Measurement helpers shared by every workload: clocks, CPU time, peak
// RSS, order statistics, an order-independent session digest, and the
// metric list the benchmark prints as its last line.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
std::uint64_t now_ns();
double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns);

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// CPU seconds of another live thread of this process (pthread_getcpuclockid).
double thread_cpu_s(pthread_t thread);

/// Reset the kernel's RSS high-water mark to the current RSS (writes 5 to
/// /proc/self/clear_refs). Returns false where the kernel refuses; the
/// peak then covers the whole process.
bool reset_peak_rss();
/// VmHWM from /proc/self/status, in MB (2^20 bytes).
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Order-independent digest of a multiset of byte strings: two sums of
/// independently seeded hashes plus the element count. Two runs whose
/// session multisets differ in any byte agree only by hash collision.
struct MultisetDigest {
  std::uint64_t count = 0;
  std::uint64_t sum_a = 0;
  std::uint64_t sum_b = 0;

  void add(std::string_view bytes);
  bool operator==(const MultisetDigest&) const = default;
  std::string to_string() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's result, printed as the last output line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Record a failed output check: counted as a failure, logged to stderr.
  void fail_check(const std::string& what);
  std::string to_json() const;
};

}  // namespace perfbench

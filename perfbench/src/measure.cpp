#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  return clock_s(id);
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

/// 64-bit mix of a byte string (FNV-1a followed by a murmur finalizer).
std::uint64_t hash_bytes(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

void MultisetDigest::add(std::string_view bytes) {
  ++count;
  sum_a += hash_bytes(bytes.data(), bytes.size(), 0x9e3779b97f4a7c15ull);
  sum_b += hash_bytes(bytes.data(), bytes.size(), 0xc2b2ae3d27d4eb4full);
}

std::string MultisetDigest::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu:%016llx%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum_a),
                static_cast<unsigned long long>(sum_b));
  return buf;
}

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fail_check(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

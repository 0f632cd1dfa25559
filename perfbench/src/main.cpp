// perfbench: the end-to-end benchmark for droppkt.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR]
//
// Workloads: replay_long, replay_estimates, paced_incident, train_cv (see
// perfbench/NOTES.md). Inputs are generated from --seed; the measured
// phase runs for about --seconds. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// the raw spans to DIR and prints per-layer self times to stderr).
// Exits 1 when an output check fails, 2 on bad arguments or errors.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream) {
  std::uint64_t x = run_seed * 0x9e3779b97f4a7c15ull + stream;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. Each pass starts fresh engine
  // threads; with per-thread arenas, which arena they land in decides how
  // much memory freed by earlier passes is reused, and peak RSS swung by
  // +-10% between identical runs.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Tracer tracer;
  perfbench::Report report;
  try {
    if (opt.workload == "train_cv") {
      report = perfbench::run_train_cv(opt, tracer);
    } else if (opt.workload == "replay_long" || opt.workload == "replay_estimates" ||
               opt.workload == "paced_incident") {
      report = perfbench::run_stream_workload(opt, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace) {
      std::filesystem::create_directories(opt.out_dir);
      const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".jsonl";
      if (!tracer.write_jsonl(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 2;
      }
      std::fprintf(stderr, "spans written to %s (%" PRIu64 " beyond the in-memory cap)\n",
                   path.c_str(), tracer.raw_spans_dropped());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.correct ? 0 : 1;
}

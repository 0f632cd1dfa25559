// The benchmark's workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "engine/feed.hpp"
#include "measure.hpp"
#include "ml/dataset.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases for the benchmark's own tests.
  bool smoke = false;
  /// Where a traced run writes its raw spans.
  std::string out_dir = ".bench_build/spans";
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Worker threads of every forest fit and cross-validation.
constexpr std::size_t kTrainThreads = 2;

/// Derive an independent input seed for one generator from the run seed.
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream);

Report run_stream_workload(const Options& opt, Tracer& tracer);
Report run_train_cv(const Options& opt, Tracer& tracer);


// --- standalone layer probes (layer_probes.cpp) ---------------------------

/// ns per record of a single-thread StreamingMonitor over `feed`.
double probe_monitor_ns_per_record(const droppkt::core::QoeEstimator& est,
                                   const droppkt::engine::Feed& feed,
                                   std::size_t provisional_every);
/// ns per TlsFeatureAccumulator::snapshot_into over per-client sessions
/// of `feed`; also returns the snapshot rows for the predict probe.
double probe_snapshot_ns(const droppkt::core::QoeEstimator& est,
                         const droppkt::engine::Feed& feed,
                         std::vector<double>& rows_out);
/// ns per row of single-row compiled-forest predict over `rows`.
double probe_predict_ns_per_row(const droppkt::core::QoeEstimator& est,
                                const std::vector<double>& rows);
/// ns per record of interning the client and SNI into fresh StringPools.
double probe_intern_ns_per_record(const droppkt::engine::Feed& feed);
/// ns per message of a two-thread SpscQueue bulk transfer.
double probe_spsc_ns_per_msg(std::size_t messages);

struct FitProbe {
  double train_s = 0.0;
  double bootstrap_draw_s = 0.0;
  double column_build_s = 0.0;
  double trees_wall_s = 0.0;
  double oob_merge_s = 0.0;
  double tree_seconds_sum = 0.0;
  double parallel_efficiency = 0.0;
  double cv_s = 0.0;
  double cv_fold_s = 0.0;
};
/// One timed forest fit (collect_timing) and one 5-fold CV on `data`.
FitProbe probe_fit(const droppkt::ml::Dataset& data, Tracer& tracer);
void add_fit_metrics(const FitProbe& fit, Report& report);

/// Per-layer metrics of every streaming layer from a short traced
/// line-rate replay of a small synthetic capture, with `fit` standing in
/// for the ml fit phases; train_cv's traced run uses it so every layer
/// is reported on every workload.
void add_probe_replay_metrics(const Options& opt, Tracer& tracer,
                              const FitProbe& fit, Report& report);

}  // namespace perfbench

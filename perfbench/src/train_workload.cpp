// train_cv: the paper's offline path. Set-up simulates the paper-size
// Svc1/2/3 datasets (~5.8k labelled sessions) and extracts their TLS
// features; every measured pass then trains a QoeEstimator-default forest
// on the pooled sessions (the verdict latency of the offline path: labelled
// data in, a model that can return verdicts out), estimates held-out
// sessions with it (checked, not timed), and runs the paper's 5-fold
// stratified cross-validation. Fits and CV use a fixed kTrainThreads
// workers.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

#include "core/dataset_builder.hpp"
#include "core/estimator.hpp"
#include "core/pipeline.hpp"
#include "has/service_profile.hpp"
#include "ml/cross_validation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace droppkt;

namespace {

constexpr std::size_t kFolds = 5;
constexpr std::uint64_t kCvSeed = 1234;

struct TrainInput {
  core::LabeledDataset pooled;
  std::optional<ml::Dataset> data;  // TLS features of `pooled`
  std::vector<trace::TlsLog> held_out;
};

TrainInput setup_train(const Options& opt) {
  TrainInput in;
  const auto services = has::all_services();
  for (std::size_t i = 0; i < services.size(); ++i) {
    core::DatasetConfig cfg;
    cfg.num_sessions =
        opt.smoke ? 60 : core::paper_session_count(services[i].name);
    cfg.seed = derive_seed(opt.seed, 10 + i);
    core::LabeledDataset part = core::build_dataset(services[i], cfg);
    in.pooled.insert(in.pooled.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    core::DatasetConfig held;
    held.num_sessions = opt.smoke ? 10 : 100;
    held.seed = derive_seed(opt.seed, 20 + i);
    for (auto& s : core::build_dataset(services[i], held)) {
      in.held_out.push_back(std::move(s.record.tls));
    }
  }
  in.data.emplace(core::make_tls_dataset(in.pooled, core::QoeTarget::kCombined));
  return in;
}

struct TrainPass {
  double fit_s = 0.0;
  double cv_s = 0.0;
  double cpu_s = 0.0;  // fit + CV
  double cv_accuracy = 0.0;
  std::vector<double> fold_accuracy;
  std::vector<int> predictions;  // held-out estimates of the fitted model
};

TrainPass run_train_pass(const TrainInput& in, Tracer& tracer) {
  TrainPass out;
  Span pass_span(tracer, "driver.pass");
  const double cpu0 = process_cpu_s();
  core::EstimatorConfig ecfg;
  ecfg.forest.num_threads = kTrainThreads;
  core::QoeEstimator estimator(ecfg);
  {
    Span s(tracer, "ml.train");
    const std::uint64_t t0 = now_ns();
    estimator.train(in.pooled);
    out.fit_s = seconds_between(t0, now_ns());
  }
  const double fit_cpu_s = process_cpu_s() - cpu0;
  {
    Span s(tracer, "ml.predict");
    for (const trace::TlsLog& log : in.held_out) {
      out.predictions.push_back(estimator.predict(log));
    }
  }
  {
    Span s(tracer, "ml.cross_validate");
    const double cv_cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const ml::CrossValidationResult cv = ml::cross_validate(
        *in.data, core::forest_factory(), kFolds, kCvSeed, kTrainThreads);
    out.cv_s = seconds_between(t0, now_ns());
    out.cpu_s = fit_cpu_s + (process_cpu_s() - cv_cpu0);
    out.cv_accuracy = cv.accuracy();
    out.fold_accuracy = cv.fold_accuracy;
  }
  return out;
}

}  // namespace

Report run_train_cv(const Options& opt, Tracer& tracer) {
  Report report;
  std::vector<double> setup_s;
  TrainInput in;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    in = setup_train(opt);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const auto rows = static_cast<double>(in.data->size());
  // Rows each pass fits: the full set once, then k-1 of k folds k times.
  const double rows_fitted = rows + rows * static_cast<double>(kFolds - 1);

  if (opt.trace) {
    tracer.set_enabled(true);
    const FitProbe fit = probe_fit(*in.data, tracer);
    report.attempted += 1 + kFolds;
    tracer.set_enabled(false);
    add_probe_replay_metrics(opt, tracer, fit, report);
    return report;
  }

  reset_peak_rss();
  const std::size_t min_passes = 2;
  std::vector<TrainPass> passes;
  const std::uint64_t phase0 = now_ns();
  for (;;) {
    passes.push_back(run_train_pass(in, tracer));
    const double pass_s = passes.back().fit_s + passes.back().cv_s;
    // Stop once another pass would mostly overrun the budget.
    if (passes.size() >= min_passes &&
        seconds_between(phase0, now_ns()) + 0.5 * pass_s >= opt.seconds) {
      break;
    }
  }
  const double peak_mb = peak_rss_mb();

  for (const TrainPass& p : passes) {
    report.attempted += 1 + kFolds + p.predictions.size();
    const TrainPass& first = passes.front();
    if (std::memcmp(&p.cv_accuracy, &first.cv_accuracy, sizeof(double)) != 0 ||
        p.fold_accuracy != first.fold_accuracy) {
      report.fail_check("cv_accuracy differs across passes");
    }
    if (p.predictions != first.predictions) {
      report.fail_check("held-out estimates differ across passes");
    }
  }
  std::fprintf(stderr, "train_cv seed %" PRIu64 ": %zu rows, %zu passes, cv accuracy %.5f\n",
               opt.seed, in.data->size(), passes.size(), passes.front().cv_accuracy);

  std::vector<double> rps;
  std::vector<double> cpu;
  std::vector<double> lat;
  std::fprintf(stderr, "  passes (rows/s, fit ms):");
  for (const TrainPass& p : passes) {
    rps.push_back(rows_fitted / (p.fit_s + p.cv_s));
    cpu.push_back(p.cpu_s / rows_fitted * 1e6);
    lat.push_back(p.fit_s * 1e3);
    std::fprintf(stderr, " %.0f/%.1f", rps.back(), lat.back());
  }
  std::fprintf(stderr, "\n");
  report.add("setup_s", median(setup_s), "s");
  report.add("records_per_s", median(rps), "1/s");
  report.add("cpu_us_per_record", median(cpu), "us");
  report.add("verdict_latency_p50_ms", median(lat), "ms");
  report.add("peak_rss_mb", peak_mb, "MB");
  report.add("accuracy", passes.front().cv_accuracy, "fraction");
  return report;
}

}  // namespace perfbench

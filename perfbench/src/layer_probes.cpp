// Standalone per-layer probes for the traced run: each calls one module's
// public functions directly on the workload's own inputs, on one thread
// unless the layer is inherently two-sided (the SPSC mailbox) or parallel
// (forest fitting).
#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "ml/cross_validation.hpp"
#include "ml/random_forest.hpp"
#include "util/spsc_queue.hpp"
#include "util/string_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace droppkt;

namespace {

constexpr std::size_t kMaxProbeRecords = 400000;
constexpr std::size_t kSnapshotClients = 2000;
constexpr std::size_t kSnapshotRecordsPerClient = 240;
constexpr int kRepeatRounds = 5;

double ns_per(std::uint64_t t0, std::uint64_t t1, std::size_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

}  // namespace

double probe_monitor_ns_per_record(const core::QoeEstimator& est, const engine::Feed& feed,
                                   std::size_t provisional_every) {
  core::MonitorConfig cfg;
  cfg.client_idle_timeout_s = 120.0;
  cfg.provisional_every = provisional_every;
  cfg.materialize_transactions = false;
  core::StreamingMonitor monitor(core::StreamingMonitor::ViewSinkTag{}, est,
                                 [](const core::MonitoredSessionView&) {}, cfg);
  if (provisional_every > 0) {
    monitor.set_provisional_callback([](const core::ProvisionalEstimate&) {});
  }
  const std::size_t n = std::min(feed.size(), kMaxProbeRecords);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) monitor.observe(feed[i].client, feed[i].txn);
  monitor.finish();
  return ns_per(t0, now_ns(), n);
}

double probe_snapshot_ns(const core::QoeEstimator& est, const engine::Feed& feed,
                         std::vector<double>& rows_out) {
  std::unordered_map<std::string, std::size_t> slot;
  std::vector<core::TlsFeatureAccumulator> accs;
  for (const auto& r : feed) {
    auto it = slot.find(r.client);
    if (it == slot.end()) {
      if (accs.size() == kSnapshotClients) continue;
      it = slot.emplace(r.client, accs.size()).first;
      accs.push_back(est.make_accumulator());
    }
    core::TlsFeatureAccumulator& acc = accs[it->second];
    if (acc.transactions() < kSnapshotRecordsPerClient) acc.observe(r.txn);
  }
  const std::size_t width = est.feature_count();
  rows_out.assign(accs.size() * width, 0.0);
  const std::uint64_t t0 = now_ns();
  for (int round = 0; round < kRepeatRounds; ++round) {
    for (std::size_t i = 0; i < accs.size(); ++i) {
      accs[i].snapshot_into(std::span<double>(rows_out.data() + i * width, width));
    }
  }
  return ns_per(t0, now_ns(), accs.size() * kRepeatRounds);
}

double probe_predict_ns_per_row(const core::QoeEstimator& est, const std::vector<double>& rows) {
  const std::size_t width = est.feature_count();
  const std::size_t n = rows.size() / width;
  std::vector<double> proba(static_cast<std::size_t>(core::kNumQoeClasses));
  const std::uint64_t t0 = now_ns();
  for (int round = 0; round < kRepeatRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      est.predict_into(std::span<const double>(rows.data() + i * width, width), proba);
    }
  }
  return ns_per(t0, now_ns(), n * kRepeatRounds);
}

double probe_intern_ns_per_record(const engine::Feed& feed) {
  util::StringPool clients;
  util::StringPool snis;
  const std::size_t n = std::min(feed.size(), kMaxProbeRecords);
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    clients.intern(feed[i].client);
    snis.intern(feed[i].txn.sni);
  }
  return ns_per(t0, now_ns(), n);
}

double probe_spsc_ns_per_msg(std::size_t messages) {
  // Same size as the engine's mailbox message (kind, ref, TlsRecord, stamp).
  struct Msg {
    std::uint64_t words[7];
  };
  constexpr std::size_t kBlock = 256;
  util::SpscQueue<Msg> queue(8192, util::BackpressurePolicy::kBlock);
  std::uint64_t received = 0;
  const std::uint64_t t0 = now_ns();
  std::thread consumer([&] {
    std::vector<Msg> buf(kBlock);
    for (;;) {
      const std::size_t got = queue.pop_wait_bulk(buf.data(), kBlock);
      if (got == 0) break;
      received += got;
    }
  });
  std::vector<Msg> block(kBlock);
  for (std::size_t sent = 0; sent < messages; sent += kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) block[i].words[0] = sent + i;
    queue.push_bulk(block.data(), std::min(kBlock, messages - sent));
  }
  queue.close();
  consumer.join();
  const std::uint64_t t1 = now_ns();
  if (received != messages) throw std::runtime_error("SPSC probe lost messages");
  return ns_per(t0, t1, messages);
}

FitProbe probe_fit(const ml::Dataset& data, Tracer& tracer) {
  FitProbe out;
  ml::RandomForestParams params = core::EstimatorConfig{}.forest;
  params.num_threads = kTrainThreads;
  params.collect_timing = true;
  ml::RandomForest forest(params);
  {
    Span s(tracer, "ml.fit_probe");
    const std::uint64_t t0 = now_ns();
    forest.fit(data);
    out.train_s = seconds_between(t0, now_ns());
  }
  if (const ml::RandomForestFitTiming* t = forest.last_fit_timing()) {
    out.bootstrap_draw_s = t->bootstrap_draw_s;
    out.column_build_s = t->column_build_s;
    out.trees_wall_s = t->trees_wall_s;
    out.oob_merge_s = t->oob_merge_s;
    for (double s : t->tree_seconds) out.tree_seconds_sum += s;
    out.parallel_efficiency =
        out.tree_seconds_sum / (static_cast<double>(kTrainThreads) * t->trees_wall_s);
  }
  {
    Span s(tracer, "ml.cv_probe");
    const std::uint64_t t0 = now_ns();
    ml::cross_validate(data, core::forest_factory(), 5, 1234, kTrainThreads);
    out.cv_s = seconds_between(t0, now_ns());
  }
  out.cv_fold_s = out.cv_s / 5.0;
  return out;
}

void add_fit_metrics(const FitProbe& fit, Report& report) {
  report.add("ml.train_s", fit.train_s, "s");
  report.add("ml.fit.bootstrap_draw_s", fit.bootstrap_draw_s, "s");
  report.add("ml.fit.column_build_s", fit.column_build_s, "s");
  report.add("ml.fit.trees_wall_s", fit.trees_wall_s, "s");
  report.add("ml.fit.oob_merge_s", fit.oob_merge_s, "s");
  report.add("ml.fit.tree_seconds_sum", fit.tree_seconds_sum, "s");
  report.add("ml.fit.parallel_efficiency", fit.parallel_efficiency, "ratio");
  report.add("ml.cv_s", fit.cv_s, "s");
  report.add("ml.cv_fold_s", fit.cv_fold_s, "s");
}

}  // namespace perfbench

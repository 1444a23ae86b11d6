#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/adafgl.h"
#include "eval/runner.h"
#include "serve/store.h"

namespace perfbench {

/// Server worker threads every workload serves with.
inline constexpr int kServeThreads = 2;
/// Durable workloads checkpoint every this many rounds.
inline constexpr int kCkptInterval = 5;

/// One benchmark workload: a federated dataset and the training calls made
/// on it. The trained model is served afterwards.
struct Workload {
  std::string name;
  /// Dataset, split, client count, and the federated config in spec.fed.
  adafgl::ExperimentSpec spec;
  /// "AdaFGL" (RunAdaFgl with `ada`) or any eval::RunAlgorithm name.
  std::vector<std::string> methods;
  adafgl::AdaFglOptions ada;
  /// Round WAL plus a checkpoint every kCkptInterval rounds, written to a
  /// fresh directory per training pass.
  bool durable = false;
};

/// The named workload for `seed`, or nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The effective configuration as one JSON object.
std::string ConfigJson(const Workload& w);

/// Outcome of one pass over a workload's training calls.
struct TrainRun {
  double seconds = 0.0;
  std::vector<double> method_seconds;
  std::vector<double> method_acc;
  double test_acc = 0.0;  ///< Mean of method_acc.
  /// Transport and recovery tallies, summed over the methods.
  adafgl::comm::CommStats comm;
  adafgl::ResilienceStats resilience;
  /// Client uploads the round loops asked for.
  int64_t uploads_attempted = 0;
  /// Buffered uploads the async parameter server discarded as too stale
  /// (fed.ps.stale_rejected over the pass).
  int64_t stale_rejected = 0;
  /// Round-commit records in the WAL (durable workloads only).
  int64_t rounds_committed = 0;
  /// The model that gets served: AdaFGL's run, or the first other method's.
  adafgl::AdaFglResult ada;
  adafgl::FedRunResult fed;

  int64_t wire_bytes() const { return comm.bytes_up + comm.bytes_down; }
  /// Share of the uploads asked for that were not lost in flight, cut at
  /// the deadline, lost to a crash, rejected by validation or discarded as
  /// too stale.
  double upload_ok_frac() const {
    return 1.0 - static_cast<double>(comm.dropouts + comm.crashes +
                                     resilience.rejected_updates +
                                     stale_rejected) /
                     static_cast<double>(uploads_attempted);
  }
};

/// Runs every training call of `w` once. `durable_dir` (created fresh,
/// removed afterwards) receives the WAL and checkpoints when w.durable.
TrainRun RunTraining(const Workload& w, const adafgl::FederatedDataset& data,
                     const std::string& durable_dir);

/// Per-client class probabilities of the trained model: AdaFGL's Step 2
/// predictions, or the softmax of the final global model on each client.
std::vector<adafgl::Matrix> TrainedPredictions(
    const Workload& w, const adafgl::FederatedDataset& data,
    const TrainRun& run);

/// Freezes predictions into a store and round-trips it through the
/// serialized store format, as a deployment would load it.
adafgl::Result<adafgl::serve::FrozenStore> FreezeAndReload(
    const Workload& w, const TrainRun& run,
    const std::vector<adafgl::Matrix>& predictions);

/// Layer timings from direct calls into each layer's public functions on
/// the workload's own data.
struct LayerProbes {
  double lp_ms = 0.0;
  double local_epoch_ms = 0.0;
  double aggregate_ms = 0.0;
  double matmul_gflops = 0.0;
  double spmm_gflops = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
};
LayerProbes RunLayerProbes(const Workload& w,
                           const adafgl::FederatedDataset& data);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

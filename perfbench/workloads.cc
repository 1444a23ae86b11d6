#include "workloads.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "comm/codec.h"
#include "data/registry.h"
#include "durable/run_state.h"
#include "open_loop.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "stats.h"
#include "tensor/matrix_ops.h"

namespace perfbench {

using namespace adafgl;

namespace {

double NowS() { return static_cast<double>(obs::NowNs()) / 1e9; }

/// table8's 100 Mbit/s + 20 ms federation, with per-client slowdowns in
/// [1, 2] drawn from the run seed so simulated time depends on the input.
comm::LinkOptions WanLink() {
  comm::LinkOptions link;
  link.latency_s = 0.02;
  link.bandwidth_bps = 100e6 / 8.0;
  link.heterogeneity = 1.0;
  return link;
}

/// The repository's bench defaults on the WAN link. run.py strips ADAFGL_*
/// from the environment, so BenchFedConfig applies no overrides.
FedConfig BaseConfig(uint64_t seed) {
  FedConfig cfg = BenchFedConfig();
  cfg.seed = seed;
  cfg.comm.link = WanLink();
  return cfg;
}

ExperimentSpec Spec(const std::string& dataset, int32_t clients) {
  ExperimentSpec spec;
  spec.dataset = dataset;
  spec.split = "noniid";
  spec.num_clients = clients;
  return spec;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.ada.export_predictions = true;
  FedConfig f = BaseConfig(seed);
  if (name == "adafgl-cora") {
    w.spec = Spec("Cora", 10);
    w.methods = {"AdaFGL"};
    f.rounds = 5;
    w.ada.personalized_epochs = 3;
  } else if (name == "baselines-chameleon") {
    w.spec = Spec("Chameleon", 10);
    w.methods = {"FedGCN", "FedGL", "GCFL+", "FedSage+", "FED-PUB"};
    f.rounds = 8;
    f.comm.num_threads = 2;
  } else if (name == "fedavg-faulty-durable") {
    w.spec = Spec("Physics", 20);
    w.methods = {"FedGCN"};
    f.rounds = 20;
    f.local_epochs = 1;
    f.post_local_epochs = 2;
    f.hidden = 256;
    f.participation = 0.5;
    f.comm.codec = "fp16";
    comm::LinkOptions& l = f.comm.link;
    l.latency_s = 0.01;
    l.drop_prob = 0.10;
    l.crash_prob = 0.05;
    l.corrupt_prob = 0.02;
    l.max_retries = 3;
    l.backoff_base_s = 0.05;
    l.round_deadline_s = 0.1;
    f.resilience.aggregator = Aggregator::kTrimmedMean;
    f.resilience.trim_ratio = 0.2;
    f.resilience.min_participation = 0.3;
    f.resilience.over_select = 0.25;
    f.comm.kv.async = true;
    f.comm.kv.shards = 4;
    f.comm.kv.staleness = 2;
    w.durable = true;
  } else {
    return std::nullopt;
  }
  Result<DatasetSpec> ds = FindDataset(w.spec.dataset);
  ADAFGL_CHECK(ds.ok());
  f.inductive = ds->inductive;
  w.spec.fed = f;
  return w;
}

std::string ConfigJson(const Workload& w) {
  const FedConfig& f = w.spec.fed;
  const comm::LinkOptions& l = f.comm.link;
  std::string methods;
  for (const std::string& m : w.methods) {
    methods += (methods.empty() ? "\"" : ", \"") + m + "\"";
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"dataset\": \"%s\", \"split\": \"%s\", \"clients\": %d, "
      "\"methods\": [%s], \"model\": \"%s\", \"rounds\": %d, "
      "\"local_epochs\": %d, \"post_local_epochs\": %d, "
      "\"personalized_epochs\": %d, \"hidden\": %lld, "
      "\"participation\": %g, \"codec\": \"%s\", \"threads\": %d, "
      "\"link\": {\"latency_s\": %g, \"bandwidth_bps\": %g, "
      "\"heterogeneity\": %g, \"drop\": %g, \"crash\": %g, "
      "\"corrupt\": %g, \"max_retries\": %d, \"backoff_s\": %g, "
      "\"deadline_s\": %g}, \"aggregator\": \"%s\", \"trim_ratio\": %g, "
      "\"min_participation\": %g, \"over_select\": %g, "
      "\"kv\": {\"async\": %s, \"shards\": %d, \"staleness\": %d}, "
      "\"durable\": %s, \"ckpt_interval\": %d, "
      "\"serve\": {\"threads\": %d, \"zipf_s\": 1.0, \"smooth_frac\": 0.5, "
      "\"reference_rate\": %g, \"p99_limit_ms\": %g}}",
      w.spec.dataset.c_str(), w.spec.split.c_str(), w.spec.num_clients,
      methods.c_str(), f.model.c_str(), f.rounds, f.local_epochs,
      f.post_local_epochs, w.ada.personalized_epochs,
      static_cast<long long>(f.hidden), f.participation, f.comm.codec.c_str(),
      f.comm.num_threads, l.latency_s, l.bandwidth_bps, l.heterogeneity,
      l.drop_prob, l.crash_prob, l.corrupt_prob, l.max_retries,
      l.backoff_base_s, l.round_deadline_s,
      AggregatorName(f.resilience.aggregator), f.resilience.trim_ratio,
      f.resilience.min_participation, f.resilience.over_select,
      f.comm.kv.async ? "true" : "false", f.comm.kv.shards,
      f.comm.kv.staleness, w.durable ? "true" : "false", kCkptInterval,
      kServeThreads, kReferenceRate, kP99LimitMs);
  return buf;
}

TrainRun RunTraining(const Workload& w, const FederatedDataset& data,
                     const std::string& durable_dir) {
  namespace fs = std::filesystem;
  if (w.durable) {
    fs::remove_all(durable_dir);
    fs::create_directories(durable_dir);
    setenv("ADAFGL_DURABLE_DIR", durable_dir.c_str(), 1);
    setenv("ADAFGL_CKPT_INTERVAL", std::to_string(kCkptInterval).c_str(), 1);
  }
  const FedConfig& cfg = w.spec.fed;
  const int32_t n = data.num_clients();
  const int32_t per_round = std::max<int32_t>(
      1, static_cast<int32_t>(std::lround(cfg.participation * n)));
  const int64_t uploads_per_run =
      static_cast<int64_t>(cfg.rounds) *
      OverSelectedCount(cfg.resilience, per_round, n);

  // The parameter server records this counter whether or not metrics are on.
  const obs::Counter* stale_rejected =
      obs::MetricsRegistry::Global().GetCounter("fed.ps.stale_rejected");
  const int64_t stale_before = stale_rejected->value();

  TrainRun run;
  const double t0 = NowS();
  for (const std::string& method : w.methods) {
    const double m0 = NowS();
    if (method == "AdaFGL") {
      run.ada = RunAdaFgl(data, cfg, w.ada);
      run.method_acc.push_back(run.ada.final_test_acc);
      run.comm.Add(run.ada.comm.stats);
      run.resilience.Add(run.ada.step1.resilience);
    } else {
      FedRunResult r = RunAlgorithm(method, data, cfg);
      run.method_acc.push_back(r.final_test_acc);
      run.comm.Add(r.comm.stats);
      run.resilience.Add(r.resilience);
      if (run.fed.global_weights.empty()) run.fed = std::move(r);
    }
    run.method_seconds.push_back(NowS() - m0);
    run.uploads_attempted += uploads_per_run;
  }
  run.seconds = NowS() - t0;
  run.stale_rejected = stale_rejected->value() - stale_before;
  double acc_sum = 0.0;
  for (const double a : run.method_acc) acc_sum += a;
  run.test_acc = acc_sum / static_cast<double>(run.method_acc.size());

  if (w.durable) {
    unsetenv("ADAFGL_DURABLE_DIR");
    unsetenv("ADAFGL_CKPT_INTERVAL");
    for (const auto& entry : fs::recursive_directory_iterator(durable_dir)) {
      if (entry.path().filename() != "wal.log") continue;
      Result<durable::WalScan> scan = durable::ScanWal(entry.path().string());
      if (!scan.ok()) continue;
      for (const durable::WalRecord& rec : scan->records) {
        if (rec.type == durable::kWalRoundCommit) ++run.rounds_committed;
      }
    }
    fs::remove_all(durable_dir);
  }
  return run;
}

std::vector<Matrix> TrainedPredictions(const Workload& w,
                                       const FederatedDataset& data,
                                       const TrainRun& run) {
  if (w.methods.front() == "AdaFGL") return run.ada.client_predictions;
  FedConfig cfg = w.spec.fed;
  cfg.model = w.methods.front().substr(3);  // "Fed<Zoo>" -> "<Zoo>".
  std::vector<std::unique_ptr<FedClient>> clients = MakeClients(data, cfg);
  std::vector<Matrix> probs;
  for (auto& c : clients) {
    c->SetGlobalWeights(run.fed.global_weights);
    probs.push_back(Softmax(c->EvalLogits()));
  }
  return probs;
}

Result<serve::FrozenStore> FreezeAndReload(
    const Workload& w, const TrainRun& run,
    const std::vector<Matrix>& predictions) {
  serve::FrozenStore store;
  if (w.methods.front() == "AdaFGL") {
    Result<serve::FrozenStore> frozen = serve::FreezeAdaFgl(run.ada);
    if (!frozen.ok()) return frozen.status();
    store = std::move(*frozen);
  } else {
    for (const Matrix& p : predictions) {
      store.clients.push_back(
          serve::FreezeClient(p, 0.5, serve::Precision::kF32));
    }
  }
  return serve::DeserializeStore(serve::SerializeStore(store));
}

namespace {

/// Repeats `fn` (which returns the flops it did) until `min_seconds` pass;
/// returns GFLOP/s.
template <typename Fn>
double RateGflops(double min_seconds, Fn fn) {
  double flops = 0.0;
  const double t0 = NowS();
  double elapsed = 0.0;
  do {
    flops += fn();
    elapsed = NowS() - t0;
  } while (elapsed < min_seconds);
  return flops / elapsed / 1e9;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform());
  }
  return m;
}

}  // namespace

LayerProbes RunLayerProbes(const Workload& w, const FederatedDataset& data) {
  LayerProbes p;
  Rng rng(w.spec.fed.seed ^ 0x9e3779b97f4a7c15ULL);

  // core: Eq. 15 label propagation plus the HCS estimate, every client.
  std::vector<double> lp;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowS();
    for (const Graph& g : data.clients) {
      (void)LabelPropagation(g, g.train_nodes, w.ada.lp);
      for (int r = 0; r < w.ada.hcs_repeats; ++r) {
        (void)HomophilyConfidenceScore(g, w.ada.hcs_mask_prob, rng, w.ada.lp);
      }
    }
    lp.push_back((NowS() - t0) * 1e3);
  }
  p.lp_ms = Median(lp);

  // fed: one local epoch per client, then one aggregation of the uploads.
  std::vector<std::unique_ptr<FedClient>> clients =
      MakeClients(data, w.spec.fed);
  std::vector<double> epoch_ms;
  std::vector<std::vector<Matrix>> uploads;
  std::vector<double> sizes;
  for (auto& c : clients) {
    const double t0 = NowS();
    c->TrainEpochs(1);
    epoch_ms.push_back((NowS() - t0) * 1e3);
    uploads.push_back(c->Weights());
    sizes.push_back(static_cast<double>(std::max<int64_t>(1, c->num_train())));
  }
  p.local_epoch_ms = Median(epoch_ms);
  std::vector<double> agg_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = NowS();
    (void)AverageWeights(uploads, sizes);
    agg_ms.push_back((NowS() - t0) * 1e3);
  }
  p.aggregate_ms = Median(agg_ms);

  // tensor: Step 2's dense shapes (n x n by n x c, and n x c by c x n)
  // and SpMM over each client's adjacency and features.
  std::vector<Matrix> dense, thin;
  for (const Graph& g : data.clients) {
    dense.push_back(RandomMatrix(g.num_nodes(), g.num_nodes(), rng));
    thin.push_back(RandomMatrix(g.num_nodes(), g.num_classes, rng));
  }
  p.matmul_gflops = RateGflops(0.2, [&] {
    double flops = 0.0;
    for (size_t c = 0; c < dense.size(); ++c) {
      (void)MatMul(dense[c], thin[c]);
      (void)MatMulTransB(thin[c], thin[c]);
      flops += 4.0 * static_cast<double>(thin[c].rows()) *
               static_cast<double>(thin[c].rows()) *
               static_cast<double>(thin[c].cols());
    }
    return flops;
  });
  p.spmm_gflops = RateGflops(0.2, [&] {
    double flops = 0.0;
    for (const Graph& g : data.clients) {
      (void)g.adj.Multiply(g.features);
      flops += 2.0 * static_cast<double>(g.adj.nnz()) *
               static_cast<double>(g.feature_dim());
    }
    return flops;
  });

  // comm: the workload's codec on one client's weight list.
  std::unique_ptr<comm::Codec> codec = comm::MakeCodec(
      w.spec.fed.comm.codec, comm::CodecConfig{w.spec.fed.comm.topk_ratio});
  const std::vector<Matrix> weights = clients.front()->Weights();
  std::vector<double> enc_us, dec_us;
  for (int rep = 0; rep < 50; ++rep) {
    const double t0 = NowS();
    const std::string payload = codec->Encode(weights);
    const double t1 = NowS();
    ADAFGL_CHECK(codec->Decode(payload).ok());
    enc_us.push_back((t1 - t0) * 1e6);
    dec_us.push_back((NowS() - t1) * 1e6);
  }
  p.encode_us = Median(enc_us);
  p.decode_us = Median(dec_us);
  return p;
}

}  // namespace perfbench

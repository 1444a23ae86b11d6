/// fgl_bench: the benchmark binary for the federated training and serving
/// stack.
///
///   fgl_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--workdir <dir>]
///
/// Builds the workload's inputs from the seed, trains, serves the trained
/// model open-loop, checks the outputs, and prints one JSON result line
/// last: end-to-end metrics with --trace 0, per-layer metrics with
/// --trace 1. Exits 1 when an output check fails, 2 on bad arguments.
/// README.md in this directory describes the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/mem.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "open_loop.h"
#include "stats.h"
#include "workloads.h"

using namespace adafgl;
using namespace perfbench;

namespace {

/// The graph and its federated split are the workload's fixed input; the
/// run seed drives model initialisation, client sampling, the simulated
/// link and the query stream. (Structure Non-iid draws each client's
/// homophilous or heterophilous injection from the split seed, which moves
/// mean test accuracy by up to 0.2 between seeds and would hide a
/// regression.)
constexpr uint64_t kDataSeed = 1000;
constexpr int kPrepareRuns = 11;
constexpr int kServeSetupRuns = 7;
/// Time kept back from training for the serving reference rung, its
/// warm-up, the row checks and teardown.
constexpr double kServeReserve = 5.0;

double NowS() { return static_cast<double>(obs::NowNs()) / 1e9; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Registry counters and the tensor allocation count, read around the
/// traced training pass.
std::map<std::string, int64_t> ReadCounters() {
  std::map<std::string, int64_t> c;
  for (const char* name :
       {"tensor.matmul.flops", "tensor.spmm.flops", "autograd.backward.calls",
        "comm.retransmits", "fed.ps.buffered", "fed.ps.stale_applied",
        "fed.ps.stale_rejected", "durable.checkpoints"}) {
    c[name] = obs::MetricsRegistry::Global().GetCounter(name)->value();
  }
  c["tensor.allocs"] = obs::mem::AllocCount();
  return c;
}

/// Share of train_s spent in `method`; 0 when the workload does not run it.
double MethodShare(const Workload& w, const TrainRun& run,
                   const std::string& method) {
  for (size_t i = 0; i < w.methods.size(); ++i) {
    if (w.methods[i] == method) return run.method_seconds[i] / run.seconds;
  }
  return 0.0;
}

/// Sends every node of every client once, non-smooth, and checks the served
/// rows bitwise against the trained predictions. Returns served test
/// accuracy (client-weighted); `mismatches` counts differing rows.
double CheckServedRows(serve::Server& server, const FederatedDataset& data,
                       const std::vector<Matrix>& predictions,
                       int64_t* checked, int64_t* mismatches) {
  int64_t correct = 0, tested = 0;
  for (int32_t c = 0; c < server.num_clients(); ++c) {
    const Graph& g = data.clients[static_cast<size_t>(c)];
    const Matrix& direct = predictions[static_cast<size_t>(c)];
    std::vector<char> is_test(static_cast<size_t>(g.num_nodes()), 0);
    for (const int32_t v : g.test_nodes) is_test[static_cast<size_t>(v)] = 1;
    constexpr int32_t kChunk = 256;  // Stays below the admission queue.
    for (int32_t lo = 0; lo < g.num_nodes(); lo += kChunk) {
      const int32_t hi = std::min(g.num_nodes(), lo + kChunk);
      std::vector<std::future<Result<serve::Prediction>>> replies;
      for (int32_t v = lo; v < hi; ++v) {
        replies.push_back(server.Submit({c, v}));
      }
      for (int32_t v = lo; v < hi; ++v) {
        auto p = replies[static_cast<size_t>(v - lo)].get();
        ++*checked;
        if (!p.ok() ||
            p->probs.size() != static_cast<size_t>(direct.cols()) ||
            std::memcmp(p->probs.data(), direct.row(v),
                        static_cast<size_t>(direct.cols()) * sizeof(float)) !=
                0) {
          ++*mismatches;
          continue;
        }
        if (is_test[static_cast<size_t>(v)]) {
          ++tested;
          if (p->label == g.labels[static_cast<size_t>(v)]) ++correct;
        }
      }
    }
  }
  return tested == 0 ? 0.0 : static_cast<double>(correct) / tested;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fgl_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  const std::optional<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  const double start = NowS();
  std::printf("# run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"host\": {\"nproc\": %u, \"cpu\": \"%s\"}, "
              "\"config\": %s}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              ConfigJson(w).c_str());
  std::fflush(stdout);
  std::filesystem::create_directories(args.workdir);

  int64_t attempted = 0, failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  };

  // --- Set-up: data generation and the federated split. ---
  FederatedDataset data;
  std::vector<double> prepare_s;
  for (int i = 0; i < kPrepareRuns; ++i) {
    const double t0 = NowS();
    data = PrepareFederatedDataset(w.spec, kDataSeed);
    prepare_s.push_back(NowS() - t0);
  }

  // --- Training. Every run repeats the same calls on the same inputs. In
  // a traced run the last training run has metrics on. ---
  constexpr int kMinRuns = 2;
  const double train_budget = args.seconds - kServeReserve;
  std::vector<TrainRun> runs;
  std::vector<double> train_s;
  std::map<std::string, int64_t> before, after;
  int64_t tensor_peak_bytes = 0;
  for (;;) {
    const bool traced = args.trace && runs.size() == kMinRuns - 1;
    if (traced) {
      obs::SetMetricsEnabled(true);
      obs::mem::ResetPeakToLive();
      before = ReadCounters();
    }
    runs.push_back(RunTraining(
        w, data, args.workdir + "/durable-" + std::to_string(runs.size())));
    train_s.push_back(runs.back().seconds);
    if (traced) {
      after = ReadCounters();
      tensor_peak_bytes = obs::mem::PeakBytes();
      obs::SetMetricsEnabled(false);
    }
    if (runs.size() < kMinRuns) continue;
    if (args.trace) break;
    if (NowS() - start + Median(train_s) > train_budget) break;
  }
  const TrainRun& first = runs.front();
  for (size_t i = 1; i < runs.size(); ++i) {
    check(runs[i].test_acc == first.test_acc &&
              runs[i].wire_bytes() == first.wire_bytes(),
          "training run " + std::to_string(i) +
              " did not repeat test_acc and wire bytes");
  }
  if (w.durable) {
    for (const TrainRun& r : runs) {
      check(r.rounds_committed ==
                static_cast<int64_t>(w.spec.fed.rounds) *
                    static_cast<int64_t>(w.methods.size()),
            "durable run committed " + std::to_string(r.rounds_committed) +
                " rounds");
    }
  }

  // --- Traced extras: Step 1 alone, passes with and without durability,
  // and direct layer probes. ---
  double step1_s = 0.0, stall_frac = 0.0;
  LayerProbes probes;
  if (args.trace) {
    if (w.methods.front() == "AdaFGL") {
      FedConfig step1 = w.spec.fed;
      step1.post_local_epochs = 0;
      const double t0 = NowS();
      (void)RunFedAvg(data, step1);
      step1_s = NowS() - t0;
    }
    if (w.durable) {
      // Plain and durable passes alternate so that host drift hits both.
      Workload plain_w = w;
      plain_w.durable = false;
      std::vector<double> durable_s = {first.seconds}, plain_s;
      plain_s.push_back(RunTraining(plain_w, data, "").seconds);
      durable_s.push_back(
          RunTraining(w, data, args.workdir + "/durable-stall").seconds);
      plain_s.push_back(RunTraining(plain_w, data, "").seconds);
      stall_frac = Median(durable_s) / Median(plain_s) - 1.0;
    }
    probes = RunLayerProbes(w, data);
  }

  // --- Serving set-up: freeze, reload, start the server. ---
  const std::vector<Matrix> predictions = TrainedPredictions(w, data, first);
  std::unique_ptr<serve::Server> server;
  std::vector<double> serve_setup_s;
  for (int i = 0; i < kServeSetupRuns; ++i) {
    const double t0 = NowS();
    server.reset();
    Result<serve::FrozenStore> store = FreezeAndReload(w, first, predictions);
    if (!store.ok()) {
      std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
      return 1;
    }
    std::vector<CsrMatrix> adjacency;
    for (const Graph& g : data.clients) adjacency.push_back(g.adj);
    serve::ServeOptions opts;
    opts.threads = kServeThreads;
    Result<std::unique_ptr<serve::Server>> created =
        serve::Server::Create(std::move(*store), std::move(adjacency), opts);
    if (!created.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    server = std::move(*created);
    serve_setup_s.push_back(NowS() - t0);
  }

  // --- Open-loop ladder. ---
  std::vector<int32_t> client_nodes;
  for (const Graph& g : data.clients) client_nodes.push_back(g.num_nodes());
  const QueryMix mix(client_nodes, 1.0, args.seed ^ 0x5e7e5eedULL);
  // Untraced runs measure the reference rung only; traced runs also climb
  // the ladder to the capacity.
  LadderOptions ladder;
  ladder.seed = args.seed;
  ladder.climb = args.trace;
  const LadderResult load = RunLadder(*server, mix, ladder);
  for (const RungResult& r : load.rungs) {
    std::printf("# rung {\"rate\": %.0f, \"sent\": %lld, \"shed\": %lld, "
                "\"failed\": %lld, \"windows\": %d, \"p50_ms\": %.4f, "
                "\"p99_ms\": %.4f, \"lag_p99_ms\": %.4f, \"pass\": %s}\n",
                r.rate, static_cast<long long>(r.sent),
                static_cast<long long>(r.shed),
                static_cast<long long>(r.failed), r.windows, r.p50_ms,
                r.p99_ms, r.lag_p99_ms, r.pass ? "true" : "false");
  }
  attempted += load.reference.sent;
  failed += load.reference.shed + load.reference.failed;

  int64_t rows_checked = 0, row_mismatches = 0;
  const double served_acc =
      CheckServedRows(*server, data, predictions, &rows_checked,
                      &row_mismatches);
  attempted += rows_checked;
  failed += row_mismatches;
  server->Shutdown();

  // --- Report. ---
  std::string methods_json;
  for (size_t i = 0; i < w.methods.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"test_acc\": %.17g, "
                  "\"seconds\": %.6f}", i == 0 ? "" : ", ",
                  w.methods[i].c_str(), first.method_acc[i],
                  first.method_seconds[i]);
    methods_json += buf;
  }
  std::printf("# methods {%s}\n", methods_json.c_str());
  std::string train_json;
  for (const double t : train_s) {
    train_json += (train_json.empty() ? "" : ", ") + std::to_string(t);
  }
  std::printf("# train_runs {\"seconds\": [%s]}\n", train_json.c_str());

  MetricSet m;
  if (!args.trace) {
    m.Add("setup_s", Median(prepare_s) + Median(serve_setup_s), "s");
    m.Add("train_s", Median(train_s), "s");
    m.Add("test_acc", first.test_acc, "frac");
    m.Add("wire_mb", static_cast<double>(first.wire_bytes()) / 1e6, "MB");
    m.Add("sim_s", first.comm.sim_seconds, "s");
    m.Add("peak_rss_mb",
          static_cast<double>(obs::mem::ReadPeakRssBytes()) / 1e6, "MB");
    m.Add("train_ok_frac", first.upload_ok_frac(), "frac");
    m.Add("serve_ok_frac",
          static_cast<double>(load.reference.ok) /
              static_cast<double>(load.reference.sent),
          "frac");
    m.Add("serve_p50_ms", load.reference.p50_ms, "ms");
  } else {
    const TrainRun& traced = runs.back();
    auto delta = [&](const char* name) {
      return static_cast<double>(after.at(name) - before.at(name));
    };
    const double ada_s = MethodShare(w, first, "AdaFGL") * first.seconds;
    m.Add("data.prepare_s", Median(prepare_s), "s");
    m.Add("core.step1_frac", step1_s / first.seconds, "frac");
    m.Add("core.step2_frac",
          ada_s > 0.0 ? (ada_s - step1_s) / first.seconds : 0.0, "frac");
    m.Add("core.lp_ms", probes.lp_ms, "ms");
    m.Add("fed.fedgcn_frac", MethodShare(w, first, "FedGCN"), "frac");
    m.Add("fed.fedgl_frac", MethodShare(w, first, "FedGL"), "frac");
    m.Add("fed.gcflplus_frac", MethodShare(w, first, "GCFL+"), "frac");
    m.Add("fed.fedsageplus_frac", MethodShare(w, first, "FedSage+"), "frac");
    m.Add("fed.fedpub_frac", MethodShare(w, first, "FED-PUB"), "frac");
    m.Add("fed.local_epoch_ms", probes.local_epoch_ms, "ms");
    m.Add("fed.aggregate_ms", probes.aggregate_ms, "ms");
    m.Add("fed.rounds_skipped",
          static_cast<double>(first.resilience.rounds_skipped), "count");
    m.Add("fed.rejected_updates",
          static_cast<double>(first.resilience.rejected_updates), "count");
    m.Add("tensor.matmul_gflop", delta("tensor.matmul.flops") / 1e9, "GFLOP");
    m.Add("tensor.spmm_gflop", delta("tensor.spmm.flops") / 1e9, "GFLOP");
    m.Add("tensor.matmul_rate_gflops", probes.matmul_gflops, "GFLOP/s");
    m.Add("tensor.spmm_rate_gflops", probes.spmm_gflops, "GFLOP/s");
    m.Add("tensor.peak_mb", static_cast<double>(tensor_peak_bytes) / 1e6,
          "MB");
    m.Add("tensor.allocs", delta("tensor.allocs"), "count");
    m.Add("nn.backward_calls", delta("autograd.backward.calls"), "count");
    m.Add("comm.encode_us", probes.encode_us, "us");
    m.Add("comm.decode_us", probes.decode_us, "us");
    m.Add("comm.messages",
          static_cast<double>(first.comm.messages_up +
                              first.comm.messages_down),
          "count");
    m.Add("comm.retransmits", delta("comm.retransmits"), "count");
    m.Add("comm.drops", static_cast<double>(first.comm.drops), "count");
    m.Add("comm.deadline_cuts", static_cast<double>(first.comm.deadline_cuts),
          "count");
    m.Add("comm.crashes", static_cast<double>(first.comm.crashes), "count");
    m.Add("comm.delivered_frac", first.upload_ok_frac(), "frac");
    m.Add("comm.ps.buffered", delta("fed.ps.buffered"), "count");
    m.Add("comm.ps.stale_applied", delta("fed.ps.stale_applied"), "count");
    m.Add("comm.ps.stale_rejected", delta("fed.ps.stale_rejected"), "count");
    m.Add("durable.stall_frac", stall_frac, "frac");
    m.Add("durable.rounds_committed",
          static_cast<double>(traced.rounds_committed), "count");
    m.Add("durable.checkpoints", delta("durable.checkpoints"), "count");
    m.Add("serve.test_acc", served_acc, "frac");
    m.Add("serve.p99_ms", load.reference.p99_ms, "ms");
    m.Add("serve.max_qps", load.max_qps, "1/s");
    m.Add("serve.batch_mean", load.batch_mean, "count");
    m.Add("serve.cache_hit_frac", load.cache_hit_frac, "frac");
    m.Add("serve.queue_high_water",
          static_cast<double>(load.queue_high_water), "count");
    m.Add("serve.gen_lag_ms", load.reference.lag_p99_ms, "ms");
    m.Add("trace_overhead_frac",
          (traced.seconds - first.seconds) / first.seconds, "frac");
  }

  check(m.AllFinite() && served_acc > 0.0,
        "a metric is not finite or nothing was served correctly");
  std::filesystem::remove_all(args.workdir);
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), m.Json().c_str());
  return correct ? 0 : 1;
}

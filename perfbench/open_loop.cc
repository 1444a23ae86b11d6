#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>

#include <sys/prctl.h>

#include "obs/obs.h"
#include "stats.h"

namespace perfbench {

using adafgl::Rng;
using adafgl::Status;
using adafgl::serve::Prediction;
using adafgl::serve::Query;
using adafgl::serve::Server;

QueryMix::QueryMix(const std::vector<int32_t>& client_nodes, double zipf_s,
                   uint64_t seed) {
  for (size_t c = 0; c < client_nodes.size(); ++c) {
    for (int32_t v = 0; v < client_nodes[c]; ++v) {
      by_rank_.push_back({static_cast<int32_t>(c), v, false});
    }
  }
  Rng rng(seed);
  for (size_t i = by_rank_.size(); i > 1; --i) {
    std::swap(by_rank_[i - 1],
              by_rank_[static_cast<size_t>(rng.UniformInt(
                  static_cast<int64_t>(i)))]);
  }
  cdf_.resize(by_rank_.size());
  double sum = 0.0;
  for (size_t i = 0; i < by_rank_.size(); ++i) {
    by_rank_[i].smooth = (i & 1) != 0;
    sum += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
    cdf_[i] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

Query QueryMix::Draw(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
  const size_t rank = std::min(static_cast<size_t>(it - cdf_.begin()),
                               by_rank_.size() - 1);
  return by_rank_[rank];
}

namespace {

constexpr double kWarmupSeconds = 0.25;
constexpr double kReferenceSeconds = 2.5;
constexpr double kRungSeconds = 0.5;
constexpr double kClimbRates[] = {8000,   16000,  32000, 64000,
                                  128000, 256000, 512000};
constexpr int kBisectSteps = 3;
constexpr int64_t kWindowRequests = 1000;
/// Caps a rung's memory (one future and reply per request).
constexpr int64_t kMaxRungRequests = 150000;

/// Sleeps until `due_ns` is near, then spins the last few microseconds.
/// Sleeping keeps the generator off the cores the server needs; the
/// caller's timer slack must be small for the sleep to end on time.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t gap = due_ns - adafgl::obs::NowNs();
    if (gap <= 0) return;
    if (gap > 20000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 15000));
    }
  }
}

RungResult RunRung(Server& server, const QueryMix& mix, double rate,
                   double seconds, Rng& rng) {
  const auto n = std::clamp<int64_t>(std::llround(rate * seconds), 1,
                                     kMaxRungRequests);
  std::vector<Query> queries(static_cast<size_t>(n));
  for (Query& q : queries) q = mix.Draw(rng);

  std::vector<std::future<adafgl::Result<Prediction>>> futures(
      static_cast<size_t>(n));
  std::vector<int64_t> lag_ns(static_cast<size_t>(n));
  std::vector<double> latency_ms(static_cast<size_t>(n));
  std::atomic<int64_t> sent{0};
  RungResult r;
  r.rate = rate;
  r.sent = n;

  // The collector waits on replies in send order; each latency is the
  // send lag plus the server's submit-to-completion time.
  std::thread collector([&] {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int64_t i = 0; i < n; ++i) {
      while (sent.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const auto k = static_cast<size_t>(i);
      adafgl::Result<Prediction> p = futures[k].get();
      if (p.ok()) {
        ++r.ok;
        latency_ms[k] = static_cast<double>(lag_ns[k] + p->latency_ns) / 1e6;
      } else {
        ++(p.status().code() == Status::Code::kOutOfRange ? r.shed
                                                          : r.failed);
        latency_ms[k] = kInf;
      }
    }
  });

  const double period_ns = 1e9 / rate;
  const int64_t t0 = adafgl::obs::NowNs() + 1000000;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    WaitUntil(due);
    const auto k = static_cast<size_t>(i);
    lag_ns[k] = adafgl::obs::NowNs() - due;
    futures[k] = server.Submit(queries[k]);
    sent.store(i + 1, std::memory_order_release);
  }
  collector.join();

  r.windows = static_cast<int>(std::max<int64_t>(1, n / kWindowRequests));
  std::vector<double> p50, p99;
  for (int w = 0; w < r.windows; ++w) {
    const auto lo = latency_ms.begin() + n * w / r.windows;
    const auto hi = latency_ms.begin() + n * (w + 1) / r.windows;
    p50.push_back(Quantile({lo, hi}, 0.50));
    p99.push_back(Quantile({lo, hi}, 0.99));
  }
  r.p50_ms = Median(p50);
  r.p99_ms = Median(p99);
  std::vector<double> lag_ms;
  for (const int64_t l : lag_ns) lag_ms.push_back(static_cast<double>(l) / 1e6);
  r.lag_p99_ms = Quantile(std::move(lag_ms), 0.99);
  return r;
}

}  // namespace

LadderResult RunLadder(Server& server, const QueryMix& mix,
                       const LadderOptions& options) {
  // 1 us timer slack (Linux default: 50 us) so WaitUntil's sleeps end on
  // time; restored afterwards.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  Rng rng(options.seed);
  // Warm the result cache and the server threads; not recorded.
  (void)RunRung(server, mix, kReferenceRate, kWarmupSeconds, rng);

  const adafgl::serve::ServeStats before = server.Stats();
  LadderResult out;
  double lo = 0.0;  // Highest passing rate.
  double hi = std::numeric_limits<double>::infinity();  // Lowest failing.
  auto probe = [&](double rate, double seconds) {
    RungResult r = RunRung(server, mix, rate, seconds, rng);
    r.pass = r.p99_ms <= kP99LimitMs;
    if (r.pass) {
      lo = std::max(lo, rate);
    } else {
      hi = std::min(hi, rate);
    }
    out.rungs.push_back(r);
    return r;
  };
  out.reference = probe(kReferenceRate, kReferenceSeconds);
  if (options.climb) {
    for (const double rate : kClimbRates) {
      if (rate >= hi) break;
      probe(rate, kRungSeconds);
    }
    for (double rate = kReferenceRate / 2; lo == 0.0 && rate >= 250.0;
         rate /= 2) {
      probe(rate, kRungSeconds);
    }
    for (int s = 0; s < kBisectSteps && lo > 0.0 && std::isfinite(hi); ++s) {
      probe(std::sqrt(lo * hi), kRungSeconds);
    }
    out.max_qps = std::isfinite(hi) ? std::sqrt(lo * hi) : lo;
  }
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);

  const adafgl::serve::ServeStats after = server.Stats();
  const auto batches = static_cast<double>(after.batches - before.batches);
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const auto lookups = hits + static_cast<double>(after.cache_misses -
                                                  before.cache_misses);
  out.batch_mean =
      batches > 0
          ? static_cast<double>(after.completed - before.completed) / batches
          : 0.0;
  out.cache_hit_frac = lookups > 0 ? hits / lookups : 0.0;
  out.queue_high_water = after.queue_high_water;
  return out;
}

}  // namespace perfbench

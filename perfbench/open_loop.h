#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

#include "serve/server.h"
#include "tensor/rng.h"

namespace perfbench {

/// Query popularity: Zipf(s) over a seed-shuffled ranking of every node of
/// every store client. Every other rank asks for ego-graph smoothing, so
/// half the traffic is smooth.
class QueryMix {
 public:
  QueryMix(const std::vector<int32_t>& client_nodes, double zipf_s,
           uint64_t seed);
  adafgl::serve::Query Draw(adafgl::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<adafgl::serve::Query> by_rank_;
};

/// Open-loop load: one generator thread sends each rung at a fixed rate
/// whatever the replies do, and a request's latency runs from when it was
/// due to be sent, so generator stalls and queueing both count.
///
/// The reference rung at kReferenceRate gives the headline latencies. With
/// `climb` set the ladder then doubles the rate until a rung misses the p99
/// limit and bisects (in log space) between the last passing and the first
/// failing rate; the capacity is the geometric middle of the final bracket.
inline constexpr double kReferenceRate = 4000.0;
/// A rung passes when its p99 is within this limit. A shed or failed
/// request counts as an infinite latency.
inline constexpr double kP99LimitMs = 2.0;

struct LadderOptions {
  bool climb = false;
  uint64_t seed = 1;
};

struct RungResult {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;    ///< Refused with OutOfRange (full admission queue).
  int64_t failed = 0;  ///< Any other error.
  /// Each rung is cut into windows of 1000 requests or more; p50 and p99
  /// are medians of the per-window quantiles, so a stall of the host
  /// moves the windows it hits and not the rung.
  int windows = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;  ///< p99 of send time minus due time.
  bool pass = false;
};

struct LadderResult {
  RungResult reference;
  std::vector<RungResult> rungs;  ///< Every rung run, reference first.
  double max_qps = 0.0;  ///< 0 unless the ladder climbed.
  double batch_mean = 0.0;      ///< Completed requests per micro-batch.
  double cache_hit_frac = 0.0;  ///< Result-cache hits over lookups.
  int64_t queue_high_water = 0;
};

LadderResult RunLadder(adafgl::serve::Server& server, const QueryMix& mix,
                       const LadderOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_

// fpq::stats — nonparametric bootstrap confidence intervals.
//
// The paper reports point estimates only; the reproduction attaches
// percentile-bootstrap confidence intervals so EXPERIMENTS.md can state not
// just "measured 8.6 vs paper 8.5" but whether the paper value is inside
// the resampling interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/prng.hpp"

namespace fpq::stats {

/// A two-sided confidence interval with its point estimate.
struct BootstrapInterval {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.0;  ///< e.g. 0.95
};

/// Statistic evaluated on a resampled dataset.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap for an arbitrary statistic.
/// Requires non-empty data, replicates >= 100, confidence in (0, 1).
BootstrapInterval bootstrap_interval(std::span<const double> data,
                                     const Statistic& statistic,
                                     std::size_t replicates,
                                     double confidence, Xoshiro256pp& g);

/// Convenience wrapper: bootstrap CI for the mean.
BootstrapInterval bootstrap_mean(std::span<const double> data,
                                 std::size_t replicates, double confidence,
                                 Xoshiro256pp& g);

// -- Streaming (memory-bounded) bootstrap --------------------------------
//
// At serving scale the per-respondent observations are never
// materialized, so the classic resample-the-data-vector bootstrap above
// cannot run. The streaming path resamples CHUNKS instead: each streamed
// shard reduces its records to one (sum, n) sufficient statistic, and a
// replicate draws `chunks` chunk statistics with replacement. This is a
// cluster (block) bootstrap over the deterministic chunk partition —
// memory O(chunks + replicates) regardless of record count, and it
// converges to the iid bootstrap as the chunk count grows. The interval
// is a pure function of (chunk stats, replicates, confidence, seed):
// bit-identical at every thread count, but — like any block bootstrap —
// a function of the chunk partition itself.

/// One streamed chunk's sufficient statistic for a mean. The observations
/// in the survey pipeline are small integer tallies, so `sum` is exact in
/// binary64 far past any cohort size we handle.
struct ChunkMeanStat {
  double sum = 0.0;
  std::size_t n = 0;
};

/// Mergeable accumulator producing the chunk-ordered ChunkMeanStat list
/// for stream_accumulate: each chunk's accumulator holds one open stat;
/// merging closes and concatenates them in merge order, so the
/// chunk-ordered tree merge yields the stats in chunk order.
class ChunkStatAccumulator {
 public:
  void add(double value) noexcept {
    open_.sum += value;
    ++open_.n;
  }
  void merge(ChunkStatAccumulator&& other);
  /// Closed stats in chunk order (plus the open stat, if any).
  std::vector<ChunkMeanStat> finish() const;

 private:
  std::vector<ChunkMeanStat> closed_;
  ChunkMeanStat open_;
};

/// Percentile bootstrap CI for the mean from chunk statistics. Requires
/// at least one nonempty chunk, replicates >= 100, confidence in (0, 1).
/// Replicate r draws from its own generator seeded with
/// parallel::shard_seed(seed, r), so the interval is a pure function of
/// (chunks, replicates, confidence, seed) at every thread count.
BootstrapInterval bootstrap_mean_from_chunks(
    std::span<const ChunkMeanStat> chunks, std::size_t replicates,
    double confidence, std::uint64_t seed, parallel::ThreadPool& pool);

}  // namespace fpq::stats

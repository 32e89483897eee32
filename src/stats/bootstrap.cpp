#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "parallel/shard.hpp"
#include "stats/descriptive.hpp"

namespace fpq::stats {

BootstrapInterval bootstrap_interval(std::span<const double> data,
                                     const Statistic& statistic,
                                     std::size_t replicates,
                                     double confidence, Xoshiro256pp& g) {
  assert(!data.empty());
  assert(replicates >= 100);
  assert(confidence > 0.0 && confidence < 1.0);

  BootstrapInterval out;
  out.confidence = confidence;
  out.estimate = statistic(data);

  std::vector<double> resample(data.size());
  std::vector<double> estimates;
  estimates.reserve(replicates);
  for (std::size_t r = 0; r < replicates; ++r) {
    for (auto& slot : resample) {
      slot = data[uniform_below(g, data.size())];
    }
    estimates.push_back(statistic(resample));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  out.lower = quantile(estimates, alpha);
  out.upper = quantile(estimates, 1.0 - alpha);
  return out;
}

BootstrapInterval bootstrap_mean(std::span<const double> data,
                                 std::size_t replicates, double confidence,
                                 Xoshiro256pp& g) {
  return bootstrap_interval(
      data, [](std::span<const double> xs) { return mean(xs); }, replicates,
      confidence, g);
}

void ChunkStatAccumulator::merge(ChunkStatAccumulator&& other) {
  // Close this side's open stat before appending the other side's stats:
  // under the chunk-ordered tree merge every left subtree precedes every
  // right subtree, so the closed list ends up in chunk order.
  if (open_.n != 0) {
    closed_.push_back(open_);
    open_ = ChunkMeanStat{};
  }
  closed_.insert(closed_.end(), other.closed_.begin(), other.closed_.end());
  if (other.open_.n != 0) closed_.push_back(other.open_);
}

std::vector<ChunkMeanStat> ChunkStatAccumulator::finish() const {
  std::vector<ChunkMeanStat> out = closed_;
  if (open_.n != 0) out.push_back(open_);
  return out;
}

BootstrapInterval bootstrap_mean_from_chunks(
    std::span<const ChunkMeanStat> chunks, std::size_t replicates,
    double confidence, std::uint64_t seed, parallel::ThreadPool& pool) {
  assert(replicates >= 100);
  assert(confidence > 0.0 && confidence < 1.0);

  double total_sum = 0.0;
  std::size_t total_n = 0;
  for (const auto& c : chunks) {
    total_sum += c.sum;
    total_n += c.n;
  }
  assert(total_n > 0);

  BootstrapInterval out;
  out.confidence = confidence;
  out.estimate = total_sum / static_cast<double>(total_n);

  // Replicate r's stream depends only on (seed, r), so the shard count
  // (and thread count) never changes which chunks replicate r draws.
  std::vector<double> estimates(replicates);
  const std::size_t shards =
      parallel::recommended_chunks(pool, replicates, 16);
  pool.run_shards(shards, [&](std::size_t shard) {
    const auto range = parallel::chunk_range(replicates, shards, shard);
    for (std::size_t r = range.begin; r < range.end; ++r) {
      Xoshiro256pp g(parallel::shard_seed(seed, r));
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t draw = 0; draw < chunks.size(); ++draw) {
        const ChunkMeanStat& pick =
            chunks[uniform_below(g, chunks.size())];
        sum += pick.sum;
        n += pick.n;
      }
      estimates[r] = n > 0 ? sum / static_cast<double>(n)
                           : out.estimate;
    }
  });

  const double alpha = (1.0 - confidence) / 2.0;
  out.lower = quantile(estimates, alpha);
  out.upper = quantile(estimates, 1.0 - alpha);
  return out;
}

}  // namespace fpq::stats

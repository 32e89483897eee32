// fpq::parallel — the streaming-accumulation shard driver.
//
// stream_accumulate() is the one parallel path for foldable statistics:
// instead of materializing an input vector and a partial-result vector,
// each chunk builds its OWN accumulator, feeds it
// from any source (a record generator, a span, a file reader), and the
// partials are combined on the caller's thread by a fixed-shape,
// chunk-ordered binary merge tree. Memory is O(chunks · accumulator),
// independent of the item count.
//
// Determinism contract (the same rules as shard.hpp, restated for
// accumulators — docs/survey.md spells out the survey instantiation):
//
//   1. The chunk partition depends only on (total, chunks) — never on the
//      thread count or schedule (chunk_range).
//   2. fill(acc, begin, end) must be a pure function of the item range:
//      any seeding inside uses the item INDEX, never the claiming thread.
//   3. merge() combines in a fixed-shape binary tree over chunk order
//      (the association pattern of stats::pairwise_sum), so the combined
//      result is a pure function of the chunk partition. Accumulators
//      whose merge is fully associative and commutative (all the integer
//      tally accumulators in fpq::survey) are additionally bit-identical
//      to the serial add-one-at-a-time fold for EVERY chunk count.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/shard.hpp"
#include "parallel/thread_pool.hpp"

namespace fpq::parallel {

namespace detail {

/// Chunk-ordered fixed-shape tree merge: the split point depends only on
/// the partial count, and the partials are consumed by move through
/// Acc::merge(Acc&&).
template <typename Acc>
Acc merge_ordered(std::vector<std::optional<Acc>>& parts, std::size_t lo,
                  std::size_t hi) {
  if (hi - lo == 1) return *std::move(parts[lo]);
  const std::size_t mid = lo + (hi - lo) / 2;
  Acc lhs = merge_ordered(parts, lo, mid);
  Acc rhs = merge_ordered(parts, mid, hi);
  lhs.merge(std::move(rhs));
  return lhs;
}

}  // namespace detail

/// Streams `total` items through per-chunk accumulators and merges them in
/// chunk order. `make_acc()` produces an identity-element accumulator
/// (called once per chunk, plus once for the empty input); `fill(acc,
/// begin, end)` feeds items [begin, end) into one chunk's accumulator via
/// acc.add(...). Returns the merged accumulator (call .finish() on it for
/// the result struct).
template <typename MakeAcc, typename FillChunk>
auto stream_accumulate(ThreadPool& pool, std::size_t total,
                       std::size_t chunks, const MakeAcc& make_acc,
                       const FillChunk& fill)
    -> std::remove_cvref_t<std::invoke_result_t<const MakeAcc&>> {
  using Acc = std::remove_cvref_t<std::invoke_result_t<const MakeAcc&>>;
  if (total == 0) return make_acc();
  if (chunks == 0) chunks = 1;
  if (chunks > total) chunks = total;

  std::vector<std::optional<Acc>> parts(chunks);
  pool.run_shards(chunks, [&](std::size_t chunk) {
    Acc acc = make_acc();
    const ChunkRange r = chunk_range(total, chunks, chunk);
    fill(acc, r.begin, r.end);
    parts[chunk].emplace(std::move(acc));
  });
  return detail::merge_ordered(parts, 0, chunks);
}

/// Span convenience: the "source" is an already-materialized span and
/// fill is acc.add(items[i]). With a survey accumulator this is the
/// sharded twin of the serial span-in entry points (survey/analysis.hpp),
/// whose fold is its oracle.
template <typename T, typename MakeAcc>
auto accumulate_span(ThreadPool& pool, std::span<const T> items,
                     std::size_t chunks, const MakeAcc& make_acc) {
  return stream_accumulate(
      pool, items.size(), chunks, make_acc,
      [&items](auto& acc, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) acc.add(items[i]);
      });
}

}  // namespace fpq::parallel

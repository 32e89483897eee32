// fpq::parallel — a fork/join work-stealing thread pool.
//
// The pool exists for one job shape: "run body(shard) exactly once for
// every shard in [0, N), as fast as the hardware allows, with results that
// are bit-identical to a single-threaded run".  Determinism is achieved by
// construction, not by luck:
//
//   * every shard index is claimed by exactly one lane (atomic cursors),
//   * shard bodies write only to their own slot of a pre-sized output,
//   * reductions happen on the caller's thread afterwards, in fixed shard
//     order (see stream.hpp's chunk-ordered merge tree) — never via shared
//     FP accumulators or atomics on floating point.
//
// Scheduling is work-stealing at the shard level: run_shards() splits the
// index space into one contiguous block per lane; each lane drains its own
// block first and then steals remaining indices from other lanes' blocks,
// so an unlucky lane stuck on expensive shards never leaves the rest of
// the machine idle.  The calling thread participates as lane 0, which
// makes ThreadPool(1) a zero-thread, purely inline executor — the
// determinism baseline the tests compare against.
//
// Failure handling is aggregate, never first-only: EVERY task failure is
// recorded with its shard index and surfaced in a ShardFailureReport whose
// order is deterministic (sorted by shard index) regardless of thread
// count or schedule.  The deadline-taking overload adds a per-job
// deadline watchdog and returns the report instead of throwing.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace fpq::parallel {

/// Why a shard has no clean result.
enum class FailureKind {
  kException,  ///< the shard body threw (message holds what())
  kDeadline,   ///< skipped: the job's deadline expired before it ran
};

std::string failure_kind_name(FailureKind kind);

/// One failed shard.
struct ShardFailure {
  std::size_t shard = 0;
  FailureKind kind = FailureKind::kException;
  /// what() of the exception the shard threw; empty for deadline shards
  /// (they never ran).
  std::string message;
};

/// Every failed shard of one run_shards job, sorted by shard index — the
/// order is a pure function of which shards failed, never of the
/// schedule, so reports are comparable across thread counts.
struct ShardFailureReport {
  std::vector<ShardFailure> failures;

  bool any() const noexcept { return !failures.empty(); }
  std::size_t count(FailureKind kind) const noexcept;
  /// "3 shard(s) failed: #4 (exception: boom), #9 (deadline), ..." — one
  /// deterministic entry per failure.
  std::string to_string() const;
};

/// Thrown by the report-less run_shards overload when any shard failed.
/// Derives from std::runtime_error so legacy catch sites keep working,
/// but carries the FULL deterministic failure list, not just the first.
class ShardFailuresError : public std::runtime_error {
 public:
  explicit ShardFailuresError(ShardFailureReport report);
  const ShardFailureReport& report() const noexcept { return report_; }

 private:
  ShardFailureReport report_;
};

/// What one deadline-run produced.
struct ShardRunReport {
  ShardFailureReport failures;
  std::size_t shard_count = 0;
  /// Shards whose body completed cleanly.
  std::size_t completed = 0;
  bool deadline_expired = false;

  bool ok() const noexcept { return !failures.any(); }
};

class ThreadPool {
 public:
  /// A pool with `threads` execution lanes. The calling thread of
  /// run_shards() is always one of the lanes, so `threads == 1` spawns no
  /// background workers at all and `threads == 0` picks
  /// default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (background workers + the calling thread).
  std::size_t lanes() const noexcept;

  /// Invokes body(shard) exactly once for every shard in [0, shard_count),
  /// distributed across the lanes, and blocks until every shard has
  /// finished. The calling thread participates; remaining shards still run
  /// when some throw, so the index space is always fully consumed. If ANY
  /// shard body throws, a ShardFailuresError carrying the full
  /// deterministic failure list is thrown after the job drains. Not
  /// reentrant: shard bodies must not call run_shards on the same pool.
  void run_shards(std::size_t shard_count,
                  const std::function<void(std::size_t)>& body);

  /// Deadline variant: runs body(shard) like the overload above but
  /// returns a full report instead of throwing on task failure. A
  /// `deadline` above zero starts a watchdog; once it expires, lanes stop
  /// running the shards they claim and report them as kDeadline failures.
  /// Shards already running finish: a body that never returns still hangs
  /// the job. Surviving shards' outputs are bit-identical to a
  /// failure-free run at any thread count.
  ShardRunReport run_shards(std::size_t shard_count,
                            std::chrono::milliseconds deadline,
                            const std::function<void(std::size_t)>& body);

  /// Hardware concurrency with a sane floor of 1.
  static std::size_t default_thread_count() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fpq::parallel

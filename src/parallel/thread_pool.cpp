#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace fpq::parallel {

std::string failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kException:
      return "exception";
    case FailureKind::kDeadline:
      return "deadline";
  }
  return "unknown";
}

std::size_t ShardFailureReport::count(FailureKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& f : failures) n += f.kind == kind ? 1 : 0;
  return n;
}

std::string ShardFailureReport::to_string() const {
  if (failures.empty()) return "no shard failures";
  std::string out = std::to_string(failures.size()) + " shard(s) failed:";
  for (const auto& f : failures) {
    out += " #" + std::to_string(f.shard) + " (" +
           failure_kind_name(f.kind);
    if (!f.message.empty()) out += ": " + f.message;
    out += ")";
  }
  return out;
}

ShardFailuresError::ShardFailuresError(ShardFailureReport report)
    : std::runtime_error(report.to_string()), report_(std::move(report)) {}

namespace {

// One lane's contiguous slice of the shard index space. `next` is the
// claim cursor: a lane (owner or thief) owns shard i iff it won the
// fetch_add that produced i. Claiming is the ONLY lock-free handoff in the
// pool; completion and results are synchronized through the job mutex.
struct Block {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

}  // namespace

// A single fork/join job. Heap-allocated and shared so that a worker which
// wakes up late (after the job already completed) can still safely read
// the claim cursors it holds a reference to; it will find every block
// drained and touch nothing else. The body pointer is only dereferenced
// for successfully claimed shards, all of which complete before
// run_shards() returns.
struct Job {
  std::vector<Block> blocks;
  std::size_t shard_count = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  // The one cross-lane signal outside the mutex: lanes read it before
  // every claim, the deadline watchdog writes it.
  std::atomic<bool> deadline_expired{false};

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;                  // guarded by done_mutex
  std::vector<ShardFailure> failures;    // guarded by done_mutex

  void run_lane(std::size_t lane);
  void drain(Block& block);
};

void Job::run_lane(std::size_t lane) {
  const std::size_t n = blocks.size();
  // Own block first, then steal from the others in cyclic order.
  for (std::size_t offset = 0; offset < n; ++offset) {
    drain(blocks[(lane + offset) % n]);
  }
}

void Job::drain(Block& block) {
  for (;;) {
    const std::size_t i = block.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= block.end) return;

    ShardFailure failure;
    bool failed = false;
    if (deadline_expired.load(std::memory_order_acquire)) {
      // Honour the deadline at claim boundaries: the shard is consumed
      // from the index space but its body never runs.
      failed = true;
      failure = {i, FailureKind::kDeadline, {}};
    } else {
      try {
        (*body)(i);
      } catch (const std::exception& e) {
        failed = true;
        failure = {i, FailureKind::kException, e.what()};
      } catch (...) {
        failed = true;
        failure = {i, FailureKind::kException, "non-standard exception"};
      }
    }

    std::lock_guard<std::mutex> lock(done_mutex);
    if (failed) failures.push_back(std::move(failure));
    if (++done == shard_count) done_cv.notify_all();
  }
}

struct ThreadPool::Impl {
  std::size_t lane_count = 1;
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_cv;
  std::shared_ptr<Job> current;  // guarded by mutex
  std::uint64_t epoch = 0;       // guarded by mutex
  bool stop = false;             // guarded by mutex

  void worker_main(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        job = current;
      }
      if (job) job->run_lane(lane);
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) threads = default_thread_count();
  impl_->lane_count = threads;
  impl_->workers.reserve(threads - 1);
  for (std::size_t lane = 1; lane < threads; ++lane) {
    impl_->workers.emplace_back(
        [impl = impl_.get(), lane] { impl->worker_main(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::lanes() const noexcept { return impl_->lane_count; }

void ThreadPool::run_shards(
    std::size_t shard_count,
    const std::function<void(std::size_t)>& body) {
  ShardRunReport report =
      run_shards(shard_count, std::chrono::milliseconds{0}, body);
  if (report.failures.any()) {
    throw ShardFailuresError(std::move(report.failures));
  }
}

ShardRunReport ThreadPool::run_shards(
    std::size_t shard_count, std::chrono::milliseconds deadline,
    const std::function<void(std::size_t)>& body) {
  ShardRunReport report;
  report.shard_count = shard_count;
  if (shard_count == 0) return report;

  auto job = std::make_shared<Job>();
  job->shard_count = shard_count;
  job->body = &body;
  const std::size_t lanes = impl_->lane_count;
  job->blocks = std::vector<Block>(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t begin = shard_count * lane / lanes;
    job->blocks[lane].next.store(begin, std::memory_order_relaxed);
    job->blocks[lane].end = shard_count * (lane + 1) / lanes;
  }

  // Per-job deadline watchdog: one thread that sleeps until completion or
  // expiry. On expiry lanes skip every still-unclaimed shard (reported as
  // kDeadline); a body that never returns still blocks the join below.
  std::thread watchdog;
  if (deadline.count() > 0) {
    watchdog = std::thread([job, deadline] {
      std::unique_lock<std::mutex> lock(job->done_mutex);
      const bool finished = job->done_cv.wait_for(
          lock, deadline, [&] { return job->done == job->shard_count; });
      if (!finished) {
        job->deadline_expired.store(true, std::memory_order_release);
      }
    });
  }

  if (lanes > 1) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current = job;
    ++impl_->epoch;
  }
  impl_->work_cv.notify_all();

  job->run_lane(0);  // the caller is lane 0

  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock,
                      [&] { return job->done == job->shard_count; });
  }
  if (watchdog.joinable()) watchdog.join();
  if (lanes > 1) {
    // Detach the job so late-waking workers see a null job; stragglers
    // already inside run_lane keep the Job alive via their shared_ptr but
    // can claim nothing (every block is drained once done == shard_count).
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->current = nullptr;
  }

  // From here on the job is quiescent: no lane touches it again, so its
  // state can be read without the mutex.
  report.deadline_expired =
      job->deadline_expired.load(std::memory_order_acquire);
  std::vector<ShardFailure> failures = std::move(job->failures);

  // Deterministic order: failures were appended in claim order (schedule-
  // dependent); the report is sorted by shard index so the same set of
  // failing shards yields the same report at every thread count.
  std::sort(failures.begin(), failures.end(),
            [](const ShardFailure& a, const ShardFailure& b) {
              return a.shard < b.shard;
            });

  report.completed = shard_count - failures.size();
  report.failures.failures = std::move(failures);
  return report;
}

std::size_t ThreadPool::default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace fpq::parallel

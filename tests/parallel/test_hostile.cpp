// Hostile-task tests for the hardened thread pool: shard bodies that
// throw, throw persistently, or outlive their deadline, at 1/2/4/8
// threads. The contracts under test: surviving shards' outputs are
// bit-identical to a failure-free run at any thread count, failure
// reports are deterministic (sorted, complete, schedule-independent),
// cancellation and deadlines convert unclaimed shards into typed
// failures, and the retry pass recovers flaky shards deterministically.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/thread_pool.hpp"

namespace par = fpq::parallel;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr std::size_t kShards = 64;

// The deterministic per-shard payload every test compares against.
double payload(std::size_t shard) {
  double x = 1.0 + static_cast<double>(shard) * 0.1;
  for (int i = 0; i < 12; ++i) x = x * 1.0000001 + 0.0625;
  return x;
}

bool throws_at(std::size_t shard) { return shard % 7 == 3; }

TEST(HostileTasks, LegacyOverloadReportsEveryFailureNotJustTheFirst) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    std::vector<double> out(kShards, 0.0);
    bool threw = false;
    try {
      pool.run_shards(kShards, [&](std::size_t s) {
        if (throws_at(s)) {
          throw std::runtime_error("boom " + std::to_string(s));
        }
        out[s] = payload(s);
      });
    } catch (const par::ShardFailuresError& e) {
      threw = true;
      std::vector<std::size_t> expected;
      for (std::size_t s = 0; s < kShards; ++s) {
        if (throws_at(s)) expected.push_back(s);
      }
      ASSERT_EQ(e.report().failures.size(), expected.size())
          << threads << " threads";
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(e.report().failures[i].shard, expected[i]);
        EXPECT_EQ(e.report().failures[i].kind,
                  par::FailureKind::kException);
        EXPECT_EQ(e.report().failures[i].message,
                  "boom " + std::to_string(expected[i]));
      }
    }
    EXPECT_TRUE(threw);
    // Every non-throwing shard still ran, and ran exactly its own work.
    for (std::size_t s = 0; s < kShards; ++s) {
      if (!throws_at(s)) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[s]),
                  std::bit_cast<std::uint64_t>(payload(s)));
      }
    }
  }
}

TEST(HostileTasks, SurvivingResultsAndReportsAreIdenticalAcrossThreadCounts) {
  std::vector<std::vector<double>> results;
  std::vector<std::string> reports;
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    std::vector<double> out(kShards, 0.0);
    const par::ShardRunReport report = pool.run_shards(
        kShards, par::RunOptions{},
        [&](std::size_t s, const par::CancelToken&) {
          if (throws_at(s)) throw std::runtime_error("poisoned");
          out[s] = payload(s);
        });
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.shard_count, kShards);
    EXPECT_EQ(report.completed + report.failures.failures.size(), kShards);
    results.push_back(std::move(out));
    reports.push_back(report.failures.to_string());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << kThreadCounts[i] << " threads";
    EXPECT_EQ(reports[i], reports[0]) << kThreadCounts[i] << " threads";
  }
}

TEST(HostileTasks, CancelOnFailureSkipsUnclaimedShards) {
  // With one lane the schedule is sequential, so everything after the
  // first thrower must be reported kCancelled, untouched.
  par::ThreadPool pool(1);
  par::RunOptions options;
  options.cancel_on_failure = true;
  std::vector<int> ran(kShards, 0);
  const par::ShardRunReport report = pool.run_shards(
      kShards, options, [&](std::size_t s, const par::CancelToken&) {
        ran[s] = 1;
        if (s == 5) throw std::runtime_error("first failure");
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.deadline_expired);
  ASSERT_EQ(report.failures.failures.size(), kShards - 5);
  EXPECT_EQ(report.failures.failures.front().shard, 5u);
  EXPECT_EQ(report.failures.failures.front().kind,
            par::FailureKind::kException);
  EXPECT_EQ(report.failures.count(par::FailureKind::kCancelled),
            kShards - 6);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ran[s], s <= 5 ? 1 : 0) << "shard " << s;
  }
}

TEST(HostileTasks, CancelOnFailureNeverLosesCompletedWork) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    par::RunOptions options;
    options.cancel_on_failure = true;
    std::vector<double> out(kShards, 0.0);
    const par::ShardRunReport report = pool.run_shards(
        kShards, options, [&](std::size_t s, const par::CancelToken&) {
          if (s == 9) throw std::runtime_error("tripwire");
          out[s] = payload(s);
        });
    // Whatever subset ran before cancellation took hold, each completed
    // shard's slot holds exactly the deterministic payload; failed and
    // skipped slots are untouched.
    std::set<std::size_t> failed;
    for (const par::ShardFailure& f : report.failures.failures) {
      failed.insert(f.shard);
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      const double want = failed.contains(s) ? 0.0 : payload(s);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[s]),
                std::bit_cast<std::uint64_t>(want))
          << "shard " << s << " at " << threads << " threads";
    }
    EXPECT_EQ(report.completed, kShards - failed.size());
  }
}

TEST(HostileTasks, RetryRecoversFlakyShards) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    par::RunOptions options;
    options.max_retries = 2;
    // Flaky: shards 3 and 11 fail on the first attempt only. Attempt
    // counters are per-shard atomics so the parallel pass may race freely.
    std::array<std::atomic<int>, kShards> attempts{};
    std::vector<double> out(kShards, 0.0);
    const par::ShardRunReport report = pool.run_shards(
        kShards, options, [&](std::size_t s, const par::CancelToken&) {
          const int attempt = attempts[s].fetch_add(1);
          if ((s == 3 || s == 11) && attempt == 0) {
            throw std::runtime_error("transient");
          }
          out[s] = payload(s);
        });
    EXPECT_TRUE(report.ok()) << threads << " threads";
    EXPECT_EQ(report.completed, kShards);
    EXPECT_EQ(report.recovered, 2u);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[s]),
                std::bit_cast<std::uint64_t>(payload(s)));
    }
  }
}

TEST(HostileTasks, PersistentThrowersExhaustTheRetryBudgetDeterministically) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    par::RunOptions options;
    options.max_retries = 3;
    const par::ShardRunReport report = pool.run_shards(
        kShards, options, [&](std::size_t s, const par::CancelToken&) {
          if (s == 20 || s == 40) throw std::runtime_error("hopeless");
        });
    ASSERT_EQ(report.failures.failures.size(), 2u);
    EXPECT_EQ(report.failures.failures[0].shard, 20u);
    EXPECT_EQ(report.failures.failures[1].shard, 40u);
    for (const par::ShardFailure& f : report.failures.failures) {
      EXPECT_EQ(f.kind, par::FailureKind::kException);
      EXPECT_EQ(f.attempts, 4u);  // 1 + max_retries
      EXPECT_EQ(f.message, "hopeless");
    }
    EXPECT_EQ(report.recovered, 0u);
  }
}

TEST(HostileTasks, DeadlineConvertsUnclaimedShardsIntoDeadlineFailures) {
  par::ThreadPool pool(2);
  par::RunOptions options;
  options.deadline = std::chrono::milliseconds(30);
  std::atomic<std::size_t> slow_started{0};
  const par::ShardRunReport report = pool.run_shards(
      256, options, [&](std::size_t s, const par::CancelToken& token) {
        if (s < 2) {
          // Two hog shards occupy both lanes past the deadline, polling
          // the token as a cooperative body should.
          slow_started.fetch_add(1);
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(300);
          while (std::chrono::steady_clock::now() < until) {
            if (token.cancelled()) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_TRUE(report.cancelled);
  EXPECT_GT(report.failures.count(par::FailureKind::kDeadline), 0u);
  EXPECT_EQ(report.failures.count(par::FailureKind::kException), 0u);
  // Reported deadline shards were never run.
  for (const par::ShardFailure& f : report.failures.failures) {
    EXPECT_EQ(f.attempts, 0u);
    EXPECT_TRUE(f.message.empty());
  }
}

TEST(HostileTasks, NoDeadlineNoFailuresIsAQuietReport) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    std::vector<double> out(kShards, 0.0);
    const par::ShardRunReport report = pool.run_shards(
        kShards, par::RunOptions{},
        [&](std::size_t s, const par::CancelToken& token) {
          EXPECT_FALSE(token.cancelled());
          out[s] = payload(s);
        });
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(report.cancelled);
    EXPECT_FALSE(report.deadline_expired);
    EXPECT_EQ(report.completed, kShards);
    EXPECT_EQ(report.recovered, 0u);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(out[s], payload(s));
    }
  }
}

TEST(HostileTasks, FailureKindNamesAreStable) {
  EXPECT_EQ(par::failure_kind_name(par::FailureKind::kException),
            "exception");
  EXPECT_EQ(par::failure_kind_name(par::FailureKind::kCancelled),
            "cancelled");
  EXPECT_EQ(par::failure_kind_name(par::FailureKind::kDeadline),
            "deadline");
}

TEST(HostileTasks, ReportToStringListsEveryShardInOrder) {
  par::ThreadPool pool(4);
  const par::ShardRunReport report = pool.run_shards(
      16, par::RunOptions{}, [&](std::size_t s, const par::CancelToken&) {
        if (s % 5 == 2) throw std::runtime_error("x" + std::to_string(s));
      });
  const std::string text = report.failures.to_string();
  std::size_t last = 0;
  for (const std::size_t s : {2u, 7u, 12u}) {
    const std::size_t pos = text.find('#' + std::to_string(s));
    ASSERT_NE(pos, std::string::npos) << text;
    EXPECT_GE(pos, last);
    last = pos;
  }
}

}  // namespace

// Hostile-task tests for the thread pool: shard bodies that throw or
// outlive their deadline, at 1/2/4/8 threads. The contracts under test:
// surviving shards' outputs are bit-identical to a failure-free run at
// any thread count, failure reports are deterministic (sorted, complete,
// schedule-independent), and a deadline converts unclaimed shards into
// typed failures.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
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
        kShards, std::chrono::milliseconds{0}, [&](std::size_t s) {
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

TEST(HostileTasks, DeadlineConvertsUnclaimedShardsIntoDeadlineFailures) {
  par::ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  const par::ShardRunReport report = pool.run_shards(
      256, std::chrono::milliseconds(30), [&](std::size_t s) {
        ran.fetch_add(1);
        if (s < 2) {
          // Two hog shards occupy both lanes past the deadline.
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
        }
      });
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_GT(report.failures.count(par::FailureKind::kDeadline), 0u);
  EXPECT_EQ(report.failures.count(par::FailureKind::kException), 0u);
  // Reported deadline shards were never run.
  EXPECT_EQ(ran.load() + report.failures.failures.size(), 256u);
  EXPECT_EQ(report.completed, ran.load());
  for (const par::ShardFailure& f : report.failures.failures) {
    EXPECT_TRUE(f.message.empty());
  }
}

TEST(HostileTasks, NoDeadlineNoFailuresIsAQuietReport) {
  for (const std::size_t threads : kThreadCounts) {
    par::ThreadPool pool(threads);
    std::vector<double> out(kShards, 0.0);
    const par::ShardRunReport report = pool.run_shards(
        kShards, std::chrono::milliseconds{0},
        [&](std::size_t s) { out[s] = payload(s); });
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(report.deadline_expired);
    EXPECT_EQ(report.completed, kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(out[s], payload(s));
    }
  }
}

TEST(HostileTasks, FailureKindNamesAreStable) {
  EXPECT_EQ(par::failure_kind_name(par::FailureKind::kException),
            "exception");
  EXPECT_EQ(par::failure_kind_name(par::FailureKind::kDeadline),
            "deadline");
}

TEST(HostileTasks, ReportToStringListsEveryShardInOrder) {
  par::ThreadPool pool(4);
  const par::ShardRunReport report = pool.run_shards(
      16, std::chrono::milliseconds{0}, [&](std::size_t s) {
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

#include "harness/executor.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/options.hpp"

namespace resilience::harness {
namespace {

std::vector<Executor::Task> repeated_tasks(int count,
                                           const std::function<void()>& fn) {
  return std::vector<Executor::Task>(static_cast<std::size_t>(count), fn);
}

TEST(Executor, RunsEveryTask) {
  Executor ex(4);
  std::atomic<int> count{0};
  ex.run(repeated_tasks(100, [&] { ++count; }));
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, FewerTasksThanWorkers) {
  Executor ex(8);
  std::atomic<int> count{0};
  ex.run(repeated_tasks(3, [&] { ++count; }));
  EXPECT_EQ(count.load(), 3);
}

TEST(Executor, SingleWorkerRunsInlineOnCaller) {
  Executor ex(1);
  EXPECT_EQ(ex.workers(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  std::vector<Executor::Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&] { ran.push_back(std::this_thread::get_id()); });
  }
  ex.run(std::move(tasks));
  ASSERT_EQ(ran.size(), 4u);
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(Executor, InFlightTasksNeverExceedWorkers) {
  constexpr int kWorkers = 4;
  Executor ex(kWorkers);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  ex.run(repeated_tasks(24, [&] {
    const int now = in_flight.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight.fetch_sub(1);
  }));
  EXPECT_LE(peak.load(), kWorkers);
  EXPECT_GE(peak.load(), 1);  // something actually ran
}

TEST(Executor, RethrowsLowestIndexException) {
  Executor ex(4);
  std::atomic<int> completed{0};
  std::vector<Executor::Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&, i] {
      if (i == 3 || i == 11) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      ++completed;
    });
  }
  try {
    ex.run(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // The batch still drained: every non-throwing task ran.
  EXPECT_EQ(completed.load(), 14);
}

TEST(Executor, NestedRunFromWorkerExecutesInline) {
  Executor ex(2);
  std::atomic<int> inner{0};
  // Both outer tasks occupy the whole pool, then submit nested batches;
  // without the inline fallback this deadlocks.
  ex.run(repeated_tasks(2, [&] {
    ex.run(repeated_tasks(8, [&] { ++inner; }));
  }));
  EXPECT_EQ(inner.load(), 16);
}

TEST(Executor, ConcurrentBatchesShareThePool) {
  Executor ex(4);
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back(
        [&] { ex.run(repeated_tasks(20, [&] { ++count; })); });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(count.load(), 60);
}

/// Sets (or, with nullptr, unsets) RESILIENCE_THREADS for one scope and
/// re-resolves the process-wide RuntimeOptions, which an earlier test may
/// already have latched; the destructor restores the previous value.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* prev = std::getenv(kVar)) saved_ = prev;
    apply(value);
  }
  ~ThreadsEnv() { apply(saved_ ? saved_->c_str() : nullptr); }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;

  static void apply(const char* value) {
    if (value != nullptr) {
      ::setenv(kVar, value, 1);
    } else {
      ::unsetenv(kVar);
    }
    util::RuntimeOptions::reset_global();
  }

 private:
  static constexpr const char* kVar = "RESILIENCE_THREADS";
  std::optional<std::string> saved_;
};

TEST(Executor, ResolveWorkersPrecedence) {
  EXPECT_EQ(Executor::resolve_workers(3), 3);
  ThreadsEnv env("5");
  EXPECT_EQ(Executor::resolve_workers(0), 5);
  EXPECT_EQ(Executor::resolve_workers(2), 2);  // explicit beats env
  ThreadsEnv::apply(nullptr);
  EXPECT_GE(Executor::resolve_workers(0), 1);
}

}  // namespace
}  // namespace resilience::harness

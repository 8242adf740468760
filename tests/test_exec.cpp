// exec/pool.h: fork-join correctness (nested forks, forks run by workers,
// exceptions), the background defer/quiesce lane, the steal count, idle
// parking, and the single immortal pool. Every test uses Pool::instance()
// and leaves its lanes empty.
// The fork-join ftree integration (bit-identical parallel bulk ops) is
// covered by test_ftree; this file exercises the pool itself.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "mvcc/exec/pool.h"

namespace {

using namespace mvcc;

// The pool is the process-wide instance() and nothing else: no second
// pool can be built or copied.
static_assert(!std::is_default_constructible_v<exec::Pool>);
static_assert(!std::is_copy_constructible_v<exec::Pool>);

// Recursive fork-join sum of [lo, hi): every level forks, so a run over a
// wide range exercises nested forks, joiners popping the newest fork, and
// forks run by workers.
std::uint64_t par_sum(exec::Pool& pool, std::uint64_t lo, std::uint64_t hi) {
  if (hi - lo <= 512) {
    std::uint64_t s = 0;
    for (std::uint64_t i = lo; i < hi; ++i) s += i;
    return s;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  auto [a, b] = pool.invoke2([&] { return par_sum(pool, lo, mid); },
                             [&] { return par_sum(pool, mid, hi); });
  return a + b;
}

constexpr std::uint64_t sum_formula(std::uint64_t n) {
  return n * (n - 1) / 2;
}

TEST(Exec, Invoke2ReturnsBothResultsInArgumentOrder) {
  exec::Pool& pool = exec::Pool::instance();
  auto [a, b] = pool.invoke2([] { return 1; }, [] { return 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Exec, NestedForksComputeTheSequentialAnswer) {
  exec::Pool& pool = exec::Pool::instance();
  EXPECT_EQ(par_sum(pool, 0, 1 << 17), sum_formula(1 << 17));
}

TEST(Exec, WorkerStealsAnInjectedFork) {
  // fa deliberately does NOT help (it only watches the flag), so the fork
  // can complete only if a pool worker takes it from the fork stack —
  // a deterministic cross-thread-execution check.
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<bool> fb_ran{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto [a, b] = pool.invoke2(
      [&] {
        while (!fb_ran.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return fb_ran.load(std::memory_order_acquire) ? 1 : 0;
      },
      [&] {
        fb_ran.store(true, std::memory_order_release);
        return 2;
      });
  EXPECT_EQ(a, 1) << "no worker ran the queued fork";
  EXPECT_EQ(b, 2);
}

#if !defined(MVCC_STATS_DISABLED)
TEST(Exec, StealsCountForksRunOffTheForkerThread) {
  obs::set_enabled(true);
  obs::Counter& steals = exec::exec_steals();
  exec::Pool& pool = exec::Pool::instance();

  // Occupy every worker with a deferred task, so the joiner must run its
  // own fork: no steal.
  const int workers = pool.workers();
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < workers; ++i) {
    pool.defer([&] {
      started.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (started.load(std::memory_order_acquire) < workers) {
    std::this_thread::yield();
  }
  std::uint64_t before = steals.value();
  auto [a, b] = pool.invoke2([] { return 1; }, [] { return 2; });
  EXPECT_EQ(a + b, 3);
  EXPECT_EQ(steals.value(), before);
  release.store(true, std::memory_order_release);
  pool.quiesce();

  // fa waits for fb without helping, so the worker must run the fork.
  std::atomic<bool> fb_ran{false};
  before = steals.value();
  auto [c, d] = pool.invoke2(
      [&] {
        while (!fb_ran.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return 1;
      },
      [&] {
        fb_ran.store(true, std::memory_order_release);
        return 2;
      });
  EXPECT_EQ(c + d, 3);
  EXPECT_EQ(steals.value(), before + 1);
  obs::set_enabled(false);
}
#endif  // !MVCC_STATS_DISABLED

TEST(ExecStress, ForkJoinFromManyExternalThreadsUnderContention) {
  exec::Pool& pool = exec::Pool::instance();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSpan = 1 << 15;
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &sums, t] {
      const std::uint64_t lo = static_cast<std::uint64_t>(t) * kSpan;
      sums[static_cast<std::size_t>(t)] = par_sum(pool, lo, lo + kSpan);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t lo = static_cast<std::uint64_t>(t) * kSpan;
    EXPECT_EQ(sums[static_cast<std::size_t>(t)],
              sum_formula(lo + kSpan) - sum_formula(lo));
  }
}

TEST(Exec, ExceptionFromForkedSidePropagates) {
  exec::Pool& pool = exec::Pool::instance();
  EXPECT_THROW(pool.invoke2([] { return 1; },
                            []() -> int { throw std::runtime_error("fb"); }),
               std::runtime_error);
}

TEST(Exec, ExceptionFromInlineSidePropagatesAfterForkCompletes) {
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<bool> fb_ran{false};
  EXPECT_THROW(pool.invoke2(
                   [&]() -> int { throw std::runtime_error("fa"); },
                   [&] {
                     fb_ran.store(true);
                     return 2;
                   }),
               std::runtime_error);
  // The fork lived on the joiner's stack; the throw path must have joined
  // it before unwinding.
  EXPECT_TRUE(fb_ran.load());
}

TEST(Exec, DeferRunsInBackgroundAndQuiesceDrains) {
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.defer([&ran] { ran.fetch_add(1); });
  }
  pool.quiesce();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.deferred_pending(), 0);
}

TEST(Exec, QuiesceWaitsForTasksDeferredByDeferredTasks) {
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<int> ran{0};
  pool.defer([&pool, &ran] {
    ran.fetch_add(1);
    pool.defer([&ran] { ran.fetch_add(1); });
  });
  pool.quiesce();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.deferred_pending(), 0);
}

TEST(Exec, ForegroundHasPriorityOverDeferredWork) {
  // With the background lane backed up, fork-join work still completes
  // promptly and correctly (workers run foreground first).
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.defer([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(par_sum(pool, 0, 1 << 14), sum_formula(1 << 14));
  pool.quiesce();
  EXPECT_EQ(ran.load(), 64);
}

// Process CPU time of every thread, in milliseconds.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST(Exec, IdlePoolBurnsNoCpu) {
  exec::Pool& pool = exec::Pool::instance();
  auto [a, b] = pool.invoke2([] { return 1; }, [] { return 2; });
  EXPECT_EQ(a + b, 3);
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(process_cpu_ms() - before, 5.0) << "idle workers are polling";
}

TEST(ExecStress, MixedForkJoinAndDeferAcrossThreads) {
  exec::Pool& pool = exec::Pool::instance();
  std::atomic<std::uint64_t> deferred_ran{0};
  constexpr int kThreads = 3;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        pool.defer([&deferred_ran] { deferred_ran.fetch_add(1); });
        if (par_sum(pool, 0, 1 << 13) != sum_formula(1 << 13)) {
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  pool.quiesce();
  EXPECT_EQ(deferred_ran.load(), kThreads * kRounds);
}

TEST(Exec, GlobalInstanceIsASingleton) {
  exec::Pool& a = exec::Pool::instance();
  exec::Pool& b = exec::Pool::instance();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1);
}

}  // namespace

// Shared task pool: the execution substrate for the bulk tree operations'
// fork-join parallelism (ftree/ops.h) and for off-critical-path precise
// reclamation (alloc/reclaim.h background lane).
//
// Before this layer every fork was a `std::async` thread (fine for one big
// batch, wasteful for many small concurrent unions, with the spawn-failure
// fallback hand-rolled at every call site) and every freed set was deleted
// inline on whoever dropped the last reference, stalling the flattener on
// large retirements. The pool replaces both with one process-wide set of
// workers (sized by MVCC_THREADS) and two lanes:
//
//   * FOREGROUND (fork-join): invoke2(fa, fb) pushes fb as a stack-allocated
//     task onto the fork stack, runs fa inline, then JOINS by helping —
//     popping the newest queued fork — until fb's done flag is set. The
//     caller is always one of the computation's workers, so a pool of W
//     threads gives MVCC_THREADS = W+1 way parallelism, and a pool that
//     failed to spawn any thread still completes every invoke2 (the caller
//     self-executes), centralizing the old per-site fallbacks.
//   * BACKGROUND (defer/quiesce): defer(fn) queues work workers run only
//     when the fork stack is empty; quiesce() helps drain and blocks until
//     every deferred task has COMPLETED. txn/'s engine publishes the exact
//     freed sets of large commits here so a commit returns before their
//     destructors run.
//
// Queue design: one mutex guards both lanes — a fork stack popped newest
// first and a FIFO deferred queue. The bulk ops halve their budget at every
// fork, so one computation never has more than MVCC_THREADS - 1 forks
// outstanding, and the end-to-end runs count 0.9-3.9 tasks per commit:
// a queue never holds enough tasks for per-worker deques or stealing to
// pay. Any thread may fork and join.
//
// Idle workers sleep on a condition variable guarded by the same mutex, so
// a push (made under it) cannot miss a sleeper and an idle pool burns no
// CPU. A push notifies one sleeper, and only when one exists.
//
// Lifetime: Pool::instance() is the only pool. It is built on first use
// and never destroyed, so its workers never join. Workers touch obs/ only
// while running a task, and a task (its exec/ counts included) finishes
// before its invoke2 returns or before quiesce() sees the lane empty, so
// static destruction never races a worker. Whoever defers must quiesce
// before exit: txn/'s engine, the only library code that defers, drains
// the lane in its destructor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mvcc/common/env.h"
#include "mvcc/obs/obs.h"

namespace mvcc::exec {

// Process-wide executor telemetry (obs registry handles, touched only
// under obs::enabled()):
//
//   exec/tasks    tasks executed by the pool (forks + deferred batches)
//   exec/steals   forks that ran on a thread other than their forker
inline obs::Counter& exec_tasks() {
  static obs::Counter& c = obs::registry().counter("exec/tasks");
  return c;
}

inline obs::Counter& exec_steals() {
  static obs::Counter& c = obs::registry().counter("exec/steals");
  return c;
}

namespace detail {
// Thread identity for the steal count: its address differs per thread.
inline thread_local char tl_thread_tag = 0;
}  // namespace detail

class Pool {
 public:
  // Workers for the process-wide pool: MVCC_THREADS minus the caller
  // (invoke2's caller participates in the fork-join, so total concurrency
  // is workers + 1), floored at 1 so the background lane always has a
  // consumer.
  static int default_workers() { return std::max(1, config().threads - 1); }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // The process-wide pool, created on first use and sized default_workers().
  static Pool& instance() {
    static Pool* p = new Pool(default_workers());
    return *p;
  }

  // Worker threads actually running (may be below the requested count
  // under thread exhaustion; the pool still functions).
  int workers() const { return static_cast<int>(threads_.size()); }

  // Fork-join: runs fa() on the calling thread and fb() potentially on a
  // worker, returning {fa(), fb()}. The caller helps execute queued forks
  // while it waits, so nesting invoke2 to any depth cannot deadlock: every
  // blocked joiner is running tasks. An exception from either side
  // propagates after both completed (fa's wins if both throw); the other
  // side's result is destroyed, which for raw owning pointers means the
  // same leak-on-OOM the std::async path had.
  template <class FA, class FB>
  auto invoke2(FA&& fa, FB&& fb)
      -> std::pair<std::invoke_result_t<FA&>, std::invoke_result_t<FB&>> {
    using RA = std::invoke_result_t<FA&>;
    using RB = std::invoke_result_t<FB&>;
    static_assert(!std::is_void_v<RA> && !std::is_void_v<RB>,
                  "invoke2 requires value-returning callables");
    ForkImpl<std::decay_t<FB>, RB> fork(std::forward<FB>(fb));
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      forks_.push_back(&fork);
      wake = sleepers_ > 0;
    }
    if (wake) cv_.notify_one();
    std::optional<RA> ra;
    try {
      ra.emplace(fa());
    } catch (...) {
      // The fork frame lives on this stack: it must finish (here or on a
      // worker) before unwinding can destroy it.
      join_fork(fork);
      throw;
    }
    join_fork(fork);
    if (fork.error) std::rethrow_exception(fork.error);
    return {std::move(*ra), std::move(*fork.result)};
  }

  // Background lane: fn() runs on a worker once the fork stack is empty.
  // fn must not throw (a throw is swallowed, not propagated) and must not
  // call quiesce (a deferred task waiting on the lane it occupies can
  // self-deadlock); deferring more work from a deferred task is fine.
  template <class F>
  void defer(F&& fn) {
    auto task =
        std::make_unique<BgTaskImpl<std::decay_t<F>>>(std::forward<F>(fn));
    bool wake;
    {
      // Count the task only once it is queued: a throwing push_back must
      // not leave quiesce() waiting on a task that never ran.
      std::lock_guard<std::mutex> lock(mu_);
      bg_.push_back(std::move(task));
      bg_pending_.fetch_add(1, std::memory_order_release);
      wake = sleepers_ > 0;
    }
    if (wake) cv_.notify_one();
  }

  // Blocks until every task deferred so far has COMPLETED (not merely been
  // dequeued), helping run them from the calling thread. Callable from any
  // thread except a deferred task itself.
  void quiesce() {
    while (bg_pending_.load(std::memory_order_acquire) > 0) {
      if (!run_one_deferred()) std::this_thread::yield();
    }
  }

  // Deferred tasks queued or running. 0 means the background lane is dry.
  std::int64_t deferred_pending() const {
    return bg_pending_.load(std::memory_order_acquire);
  }

 private:
  explicit Pool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    try {
      for (int i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
      }
    } catch (const std::system_error&) {
      // Thread limits: run with however many workers actually started.
      // Even zero works — invoke2 callers and quiesce self-execute.
    }
  }

  struct Fork {
    virtual void execute() = 0;
    const char* forker = &detail::tl_thread_tag;
    std::exception_ptr error;
    std::atomic<bool> done{false};

   protected:
    ~Fork() = default;  // never deleted through the base; forks live on
                        // their joiner's stack
  };

  template <class FB, class RB>
  struct ForkImpl final : Fork {
    explicit ForkImpl(FB f) : fn(std::move(f)) {}
    FB fn;
    std::optional<RB> result;
    void execute() override {
      try {
        result.emplace(fn());
      } catch (...) {
        this->error = std::current_exception();
      }
      this->done.store(true, std::memory_order_release);
    }
  };

  struct BgTask {
    virtual void run() = 0;
    virtual ~BgTask() = default;
  };

  template <class F>
  struct BgTaskImpl final : BgTask {
    explicit BgTaskImpl(F f) : fn(std::move(f)) {}
    F fn;
    void run() override { fn(); }
  };

  // Forks before deferred tasks; sleep when both lanes are empty.
  void worker_loop() {
    for (;;) {
      if (Fork* f = pop_fork()) {
        run_fork(*f);
        continue;
      }
      if (run_one_deferred()) continue;
      std::unique_lock<std::mutex> lock(mu_);
      if (!forks_.empty() || !bg_.empty()) continue;
      ++sleepers_;
      cv_.wait(lock);
      --sleepers_;
    }
  }

  Fork* pop_fork() {
    std::lock_guard<std::mutex> lock(mu_);
    if (forks_.empty()) return nullptr;
    Fork* f = forks_.back();
    forks_.pop_back();
    return f;
  }

  // Counts before execute(): once `done` is set, the joiner may destroy
  // `f`, and its reads of the counters must see this fork.
  void run_fork(Fork& f) {
    if (obs::enabled()) {
      exec_tasks().add();
      if (f.forker != &detail::tl_thread_tag) exec_steals().add();
    }
    f.execute();
  }

  bool run_one_deferred() {
    std::unique_ptr<BgTask> t;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (bg_.empty()) return false;
      t = std::move(bg_.front());
      bg_.pop_front();
    }
    try {
      t->run();
    } catch (...) {
      // Deferred tasks are fire-and-forget; nothing to rethrow into.
    }
    t.reset();  // the closure dies before quiesce() can return
    if (obs::enabled()) exec_tasks().add();
    bg_pending_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  // Joins a fork by helping: run the newest queued fork (our own, an
  // ancestor's, or another computation's) until the fork's done flag is
  // set.
  void join_fork(Fork& fork) {
    while (!fork.done.load(std::memory_order_acquire)) {
      if (Fork* f = pop_fork()) {
        run_fork(*f);
      } else {
        std::this_thread::yield();
      }
    }
  }

  std::mutex mu_;  // guards forks_, bg_ and sleepers_
  std::condition_variable cv_;
  std::vector<Fork*> forks_;
  std::deque<std::unique_ptr<BgTask>> bg_;
  int sleepers_ = 0;
  std::atomic<std::int64_t> bg_pending_{0};
  std::vector<std::thread> threads_;
};

// Fork-join on the process-wide pool: {fa(), fb()} with fb potentially on
// a worker. See Pool::invoke2.
template <class FA, class FB>
auto invoke2(FA&& fa, FB&& fb) {
  return Pool::instance().invoke2(std::forward<FA>(fa), std::forward<FB>(fb));
}

// Queues fn on the process-wide pool's background lane.
template <class F>
void defer(F&& fn) {
  Pool::instance().defer(std::forward<F>(fn));
}

}  // namespace mvcc::exec

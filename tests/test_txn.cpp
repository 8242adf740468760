// Tests for the batched writer engine, driven through one-shard
// txn::ShardedMaps (the paper's single batched writer), and the YCSB
// workload generator: commit semantics (sync tickets, flush drains,
// last-write-wins dedup), snapshot isolation, batch-bound accounting,
// multi-producer/multi-reader stress, and zero node leakage after every
// teardown. Every suite name starts with "Txn" so CI's TSan job can select
// this concurrency tier alongside Vm with `ctest -R 'Vm|Txn'`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/exec/pool.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"

namespace {

using namespace mvcc;

template <class V, template <class> class VMImpl>
using Map1 = txn::ShardedMap<std::uint64_t, V, ftree::NoAug<std::uint64_t, V>,
                             VMImpl>;
using PswfMap = Map1<std::uint64_t, vm::PswfVersionManager>;
using PslfMap = Map1<std::uint64_t, vm::PslfVersionManager>;
using BaseMap = Map1<std::uint64_t, vm::BaseVersionManager>;

// ---------------------------------------------------------------------------
// Batching semantics.

TEST(TxnBatching, UpsertSyncIsVisibleOnReturn) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {});
    for (std::uint64_t i = 0; i < 100; ++i) {
      map.upsert_sync(0, i, i * 10);
      auto v = map.get(0, i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i * 10);
    }
    EXPECT_EQ(map.ops_committed(), 100u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, FlushAllDrainsEverySubmission) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, {}, 1, /*max_batch=*/64);
    for (std::uint64_t i = 0; i < 500; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i, i);
    }
    for (std::uint64_t i = 400; i < 900; ++i) {
      map.submit(1, txn::BatchOp::kUpsert, i, i + 7);
    }
    map.flush_all();
    auto snap = map.snapshot(0);
    EXPECT_EQ(snap.size(), 900u);
    // Keys 400-499 are written by both producers; their winner depends on
    // drain interleaving, so only the disjoint ranges assert values.
    for (std::uint64_t i = 0; i < 400; ++i) {
      ASSERT_NE(snap.find(i), nullptr);
      EXPECT_EQ(*snap.find(i), i);
    }
    for (std::uint64_t i = 500; i < 900; ++i) {
      ASSERT_NE(snap.find(i), nullptr);
      EXPECT_EQ(*snap.find(i), i + 7);
    }
    EXPECT_EQ(map.ops_committed(), 1000u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, LastWriteWinsWithinProducer) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {}, 1, /*max_batch=*/1 << 12);
    // All updates to the same key land in one batch: dedup must keep the
    // latest submission, matching a loop of point inserts.
    for (std::uint64_t i = 0; i <= 300; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, 42, i);
    }
    map.flush_all();
    auto v = map.get(0, 42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 300u);
    EXPECT_EQ(map.ops_committed(), 301u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, SnapshotIsFrozenAcrossCommits) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {{1, 1}, {2, 2}});
    auto before = map.snapshot(0);
    map.upsert_sync(0, 3, 3);
    map.upsert_sync(0, 1, 99);
    // The snapshot still reads the version it pinned...
    EXPECT_EQ(before.size(), 2u);
    EXPECT_EQ(*before.find(1), 1u);
    EXPECT_EQ(before.find(3), nullptr);
    // ...while new snapshots see the commits.
    auto after = map.snapshot(0);
    EXPECT_EQ(after.size(), 3u);
    EXPECT_EQ(*after.find(1), 99u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, SnapshotOutlivesTheMap) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap::Snapshot* held = nullptr;
    {
      PswfMap map(1, {{7, 70}, {8, 80}});
      held = new PswfMap::Snapshot(map.snapshot(0));
    }  // manager destroyed; the snapshot owns its nodes by refcount
    EXPECT_EQ(held->size(), 2u);
    EXPECT_EQ(*held->find(7), 70u);
    delete held;
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

#ifndef NDEBUG
// Reads pin VM slot p, and slot `producers` is the flattener's: a read
// there would pin the writer's slot, and past it would index beyond the
// manager's slot array. Both reads assert the index like submit does. The
// map is built inside the statement so the fork happens before any thread.
TEST(TxnBatchingDeathTest, ReadOnASlotPastTheProducersAsserts) {
  EXPECT_DEATH(
      {
        PswfMap map(1, {{1, 1}});
        (void)map.get(1, 1);
      },
      "producers_");
  EXPECT_DEATH(
      {
        PswfMap map(1, {{1, 1}});
        (void)map.snapshot(1);
      },
      "producers_");
}
#endif

TEST(TxnBatching, RespectsMaxBatchBound) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {}, 1, /*max_batch=*/8);
    for (std::uint64_t i = 0; i < 256; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i, i);
    }
    map.flush_all();
    EXPECT_EQ(map.ops_committed(), 256u);
    // No published version may fold in more than max_batch ops.
    EXPECT_GE(map.batches_committed(), 256u / 8);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, InitialMapIsServedBeforeAnyCommit) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, workload::ycsb_dataset(1000), 1);
    EXPECT_EQ(map.snapshot(1).size(), 1000u);
    auto v = map.get(0, 999);
    EXPECT_TRUE(v.has_value());
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// The GC-off ablation (Figure 7 "ours" column) runs the same front-end
// over the leak-list Base VM; everything still comes back at teardown.
TEST(TxnBatching, BaseVmVariantCommitsAndDrains) {
  const long long base_live = ftree::live_nodes();
  {
    BaseMap map(1, {}, 1, /*max_batch=*/16);
    for (std::uint64_t i = 0; i < 200; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 50, i);
    }
    map.flush_all();
    auto v = map.get(0, 49);
    ASSERT_TRUE(v.has_value());
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan targets).

TEST(TxnBatching, MultiProducerDisjointKeysAllCommit) {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kProducers = 4;
    constexpr std::uint64_t kPerProducer = 4000;
    PswfMap map(kProducers, {}, 1, /*max_batch=*/256);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          // Disjoint key stripes; the final value per key is its last write.
          const std::uint64_t k =
              static_cast<std::uint64_t>(p) + kProducers * (i % 1000);
          if (i % 64 == 63) {
            map.upsert_sync(p, k, i);
          } else {
            map.submit(p, txn::BatchOp::kUpsert, k, i);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    map.flush_all();
    EXPECT_EQ(map.ops_committed(),
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    auto snap = map.snapshot(0);
    EXPECT_EQ(snap.size(), kProducers * 1000u);
    for (int p = 0; p < kProducers; ++p) {
      for (std::uint64_t s = 0; s < 1000; ++s) {
        const std::uint64_t k = static_cast<std::uint64_t>(p) + kProducers * s;
        const std::uint64_t* v = snap.find(k);
        ASSERT_NE(v, nullptr);
        // Last write to stripe s by producer p has i = 3000 + s.
        EXPECT_EQ(*v, 3000 + s);
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

template <class M>
void run_producers_vs_readers_stress() {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kProducers = 3;
    M map(kProducers, workload::ycsb_dataset(2000), 1, /*max_batch=*/128);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int p = 1; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        Xoshiro256 rng(static_cast<std::uint64_t>(p) * 77 + 1);
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          if (i % 97 == 96) {
            map.upsert_sync(p, rng.next_below(4000), i);
          } else {
            map.submit(p, txn::BatchOp::kUpsert, rng.next_below(4000), i);
          }
          ++i;
        }
      });
    }
    // Reader on slot 0 (no producer uses it concurrently): point reads and
    // snapshot scans must always see a consistent committed version. It
    // reads on until a batch has committed, so the producers cannot be
    // stopped before they ran.
    threads.emplace_back([&] {
      Xoshiro256 rng(5);
      for (int i = 0; i < 300 || map.batches_committed() == 0; ++i) {
        auto v = map.get(0, rng.next_below(4000));
        (void)v;
        EXPECT_GE(map.snapshot(0).size(), 2000u);
      }
      stop.store(true, std::memory_order_release);
    });
    for (auto& t : threads) t.join();
    map.flush_all();
    EXPECT_GT(map.batches_committed(), 0u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, ProducersVsReadersStressPswf) {
  run_producers_vs_readers_stress<PswfMap>();
}

TEST(TxnBatching, ProducersVsReadersStressPslf) {
  run_producers_vs_readers_stress<PslfMap>();
}

// Nested-map payloads under the batching front-end: V owns another FMap,
// so precise collect reenters itself on the flattener thread while it
// frees superseded versions — the reentrancy bug's original trigger.
TEST(TxnBatching, NestedMapPayloadsCollectPrecisely) {
  const long long base_live = ftree::live_nodes();
  {
    struct Inner {
      ftree::FMap<std::uint64_t, std::uint64_t> m;
    };
    Map1<Inner, vm::PswfVersionManager> map(1, {}, 1, /*max_batch=*/16);
    ftree::FMap<std::uint64_t, std::uint64_t> proto;
    for (std::uint64_t j = 0; j < 32; ++j) proto = proto.inserted(j, j);
    for (std::uint64_t i = 0; i < 400; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 40,
                 Inner{proto.inserted(i, i)});
    }
    map.flush_all();
    EXPECT_EQ(map.snapshot(0).size(), 40u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// YCSB generator.

TEST(TxnYcsb, ZipfRanksInRangeAndSkewed) {
  const std::uint64_t n = 1000;
  workload::ZipfGenerator zipf(n, 0.99);
  Xoshiro256 rng(42);
  constexpr int kSamples = 50000;
  std::vector<std::uint64_t> counts(n, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t r = zipf.sample(rng);
    ASSERT_LT(r, n);
    ++counts[r];
  }
  // Rank 0 is far above the uniform expectation under theta=0.99 skew.
  EXPECT_GT(counts[0], 10u * kSamples / n);
  // And the head dominates: the top 10 ranks carry well over a quarter.
  std::uint64_t head = 0;
  for (int r = 0; r < 10; ++r) head += counts[r];
  EXPECT_GT(head, kSamples / 4u);
}

TEST(TxnYcsb, StreamsAreDeterministicPerSeed) {
  workload::ZipfGenerator zipf(500, 0.99);
  workload::YcsbStream a(workload::kYcsbA, zipf, 7);
  workload::YcsbStream b(workload::kYcsbA, zipf, 7);
  workload::YcsbStream c(workload::kYcsbA, zipf, 8);
  bool any_difference = false;
  for (int i = 0; i < 1000; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    const auto oc = c.next();
    EXPECT_EQ(oa.key, ob.key);
    EXPECT_EQ(oa.type, ob.type);
    any_difference |= (oa.key != oc.key || oa.type != oc.type);
  }
  EXPECT_TRUE(any_difference);  // distinct seeds give distinct streams
}

TEST(TxnYcsb, MixesMatchTheirSpecs) {
  workload::ZipfGenerator zipf(1000, 0.99);
  for (const auto& spec :
       {workload::kYcsbA, workload::kYcsbB, workload::kYcsbC}) {
    workload::YcsbStream stream(spec, zipf, 99);
    constexpr int kOps = 20000;
    int reads = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto op = stream.next();
      reads += op.type == workload::YcsbOp::kRead;
      ASSERT_LT(op.key, 1000u);
    }
    const double frac = static_cast<double>(reads) / kOps;
    EXPECT_NEAR(frac, spec.read_fraction, 0.02)
        << "workload " << spec.name << " read mix off";
  }
}

// ---------------------------------------------------------------------------
// Deferred (background) reclamation: a commit of at least
// txn::kDeferMinBatch ops hands its exact freed sets to the exec/ pool's
// background lane (txn/batching.h); smaller commits and reader releases
// free inline. These tests pin the precision guarantees (live_nodes back
// to baseline after the destructor's quiesce, even with the lane backed
// up at shutdown), the rule itself, and the latency win the lane exists
// for. Maps built with max_batch=kDefer commit full kDefer-op batches
// whenever the producer outruns the flattener.

constexpr std::size_t kDefer = txn::kDeferMinBatch;

TEST(TxnReclaim, DeferredFreesDrainToBaselineAtTeardown) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, {}, 1, /*max_batch=*/kDefer);
    for (std::uint64_t i = 0; i < 16 * kDefer; ++i) {
      map.submit(static_cast<int>(i % 2), txn::BatchOp::kUpsert, i % 512, i);
      if (i % 97 == 0) {
        // Reader releases free inline while the commits defer.
        (void)map.get(static_cast<int>(i % 2), i % 512);
      }
    }
    map.flush_all();
  }
  // Teardown quiesced the lane: every deferred batch has been freed.
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(vm::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, ShutdownWithBackedUpLaneDoesNotLeak) {
  const long long base_live = ftree::live_nodes();
  // Hold every pool worker in a deferred task until the lane is empty, so
  // no worker can free the map's deferred sets: the lane is still backed
  // up when the destructor runs, and only its quiesce (which helps drain
  // from this thread) can free them.
  exec::Pool& pool = exec::Pool::instance();
  const int workers = pool.workers();
  std::atomic<int> held{0};
  std::atomic<bool> armed{false};
  for (int w = 0; w < workers; ++w) {
    pool.defer([&] {
      held.fetch_add(1);
      while (!armed.load() || vm::reclaim_queue_depth().load() > 0) {
        std::this_thread::yield();
      }
    });
  }
  while (held.load() < workers) std::this_thread::yield();
  std::int64_t backlog = 0;
  {
    // Every full batch publishes a deferred freed set, and nothing waits
    // for the lane before the destructor runs (no flush, no explicit
    // quiesce — teardown must drain it; the ASan tier turns any miss into
    // a leak report).
    PswfMap map(1, {}, 1, /*max_batch=*/kDefer);
    for (std::uint64_t i = 0; i < 64 * kDefer; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 1024, i);
    }
    backlog = vm::reclaim_queue_depth().load();
    armed.store(true);
  }
  EXPECT_GT(backlog, 0);
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(vm::reclaim_queue_depth().load(), 0);
  // Frees the lane and lets the held workers go if teardown missed it.
  vm::reclaim_quiesce();
}

TEST(TxnReclaim, ReadsStayCorrectWhileReclaimRunsBehind) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, {}, 1, /*max_batch=*/kDefer);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto v = map.get(1, 7);
        if (v.has_value()) {
          // The writer only ever raises key 7's value; a read below a
          // previously seen one would mean a torn or recycled version.
          EXPECT_GE(*v, last);
          last = *v;
        }
        EXPECT_LE(map.snapshot(1).size(), 257u);
      }
    });
    // Each round is one full batch: kDefer - 1 async ops, then the sync
    // write of key 7 that closes it.
    for (std::uint64_t i = 1; i <= 200; ++i) {
      for (std::uint64_t j = 0; j + 1 < kDefer; ++j) {
        map.submit(0, txn::BatchOp::kUpsert, j % 256 + 100, i);
      }
      map.upsert_sync(0, 7, i);
    }
    stop.store(true, std::memory_order_release);
    reader.join();
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

#if !defined(MVCC_STATS_DISABLED)
TEST(TxnReclaim, LaneFollowsTheCommittedBatchSize) {
  obs::set_enabled(true);
  obs::Counter& deferred = obs::registry().counter("reclaim/deferred");
  {
    PswfMap map(1, {}, 1, /*max_batch=*/kDefer);
    // A 1-op commit retires the previous version inline.
    std::uint64_t d0 = deferred.value();
    map.upsert_sync(0, 1, 1);
    EXPECT_EQ(deferred.value(), d0);
    // A round of exactly kDefer ops defers its freed set. The flattener
    // splits a round when the producer stalls mid-burst, so retry until
    // one round commits as a single batch.
    bool single_batch = false;
    for (std::uint64_t round = 0; round < 100 && !single_batch; ++round) {
      const std::uint64_t b0 = map.batches_committed();
      d0 = deferred.value();
      for (std::uint64_t j = 0; j + 1 < kDefer; ++j) {
        map.submit(0, txn::BatchOp::kUpsert, j, round);
      }
      map.upsert_sync(0, kDefer, round);
      single_batch = map.batches_committed() == b0 + 1;
      if (single_batch) {
        EXPECT_GT(deferred.value(), d0);
      }
    }
    EXPECT_TRUE(single_batch);
  }
  obs::set_enabled(false);
  EXPECT_EQ(vm::reclaim_queue_depth().load(), 0);
}
#endif

// Retired-value payload with a deliberately expensive last-reference
// destructor. shared_ptr copies (ring slots, path-copied tree nodes) cost
// nothing; only the final release — which happens when a retirement sweep
// frees the last tree node holding the value — pays the sleep. That gives
// the inline sweep a scheduler-independent cost floor of (overwrites per
// batch) * kRetireCost, far above timing noise, instead of asking two
// allocator-bound runs to out-race each other.
struct SlowToFree {
  static constexpr std::chrono::microseconds kRetireCost{100};
  ~SlowToFree() { std::this_thread::sleep_for(kRetireCost); }
};

// p99 submit-to-visible latency of upsert_sync under heavy-destructor
// payloads, over rounds of `round_ops` ops that each commit as one batch:
// below kDeferMinBatch the commit the sync waiter is parked on pays every
// retirement inline; at kDeferMinBatch it publishes them to the background
// lane in O(1). A round the flattener split (the producer stalled
// mid-burst) commits smaller batches, so it is not sampled; `samples`
// reports how many rounds were.
double p99_sync_commit_us(std::uint64_t round_ops, std::uint64_t* samples) {
  using Slow = std::shared_ptr<SlowToFree>;
  // Keys recycle every 4 rounds while the ring (2 rounds deep) drops its
  // value copy after 2 rounds, so by the time a key is overwritten the
  // retired version holds the LAST reference and the sweep runs the
  // destructor. A ring deeper than the recycle distance would keep values
  // alive past retirement and hide the very cost this test measures.
  constexpr int kWarmRounds = 6;  // recycling starts on round 4
  constexpr std::uint64_t kMeasuredRounds = 32;
  constexpr int kMaxRounds = kWarmRounds + 8 * kMeasuredRounds;
  const std::uint64_t key_space = 4 * round_ops;
  obs::LatencyHistogram lat;
  Map1<Slow, vm::PswfVersionManager> map(1, {}, 1,
                                         /*max_batch=*/2 * round_ops);
  std::uint64_t key = 0;
  for (int r = 0; r < kMaxRounds && lat.count() < kMeasuredRounds; ++r) {
    const std::uint64_t batches0 = map.batches_committed();
    for (std::uint64_t i = 0; i + 1 < round_ops; ++i, ++key) {
      map.submit(0, txn::BatchOp::kUpsert, key % key_space,
                 std::make_shared<SlowToFree>());
    }
    // The submit burst above took microseconds; an inline sweep cannot
    // have freed this round's retirements yet (each sleeps kRetireCost),
    // so this wait provably includes most of them.
    Timer t;
    map.upsert_sync(0, key % key_space, Slow{});
    const std::uint64_t nanos = t.nanos();
    ++key;
    if (r >= kWarmRounds && map.batches_committed() == batches0 + 1) {
      lat.record(nanos);
    }
  }
  map.flush_all();
  *samples = lat.count();
  return lat.quantile(0.99) / 1000.0;
}

TEST(ReclaimLatency, SyncCommitP99DoesNotInheritRetirementFrees) {
  const long long base_live = ftree::live_nodes();
  std::uint64_t inline_samples = 0;
  std::uint64_t bg_samples = 0;
  const double inline_p99_us = p99_sync_commit_us(kDefer / 2, &inline_samples);
  const double bg_p99_us = p99_sync_commit_us(kDefer, &bg_samples);
  RecordProperty("inline_p99_us", static_cast<int>(inline_p99_us));
  RecordProperty("bg_p99_us", static_cast<int>(bg_p99_us));
  EXPECT_GT(inline_samples, 0u);
  EXPECT_GT(bg_samples, 0u);
  // Inline commits' p99 has a hard floor of several milliseconds (a
  // round's worth of kRetireCost destructor sleeps on the commit path);
  // deferred commits' p99 is ordinary commit latency, far below it.
  EXPECT_GT(inline_p99_us, 1000.0)
      << "workload no longer puts retirement frees on the sync path";
  EXPECT_LT(bg_p99_us, inline_p99_us)
      << "inline p99 " << inline_p99_us << "us vs bg p99 " << bg_p99_us
      << "us";
  // Both lanes stay precise: everything freed once both maps are gone.
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(vm::reclaim_queue_depth().load(), 0);
}

TEST(TxnYcsb, DatasetIsDeterministicAndCoversKeySpace) {
  const auto d1 = workload::ycsb_dataset(1000);
  const auto d2 = workload::ycsb_dataset(1000);
  ASSERT_EQ(d1.size(), 1000u);
  EXPECT_EQ(d1, d2);
  for (std::uint64_t k = 0; k < d1.size(); ++k) EXPECT_EQ(d1[k].first, k);
  const long long base_live = ftree::live_nodes();
  {
    auto m = PswfMap::Map::from_entries(workload::ycsb_dataset(1000));
    EXPECT_EQ(m.size(), 1000u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

}  // namespace

// Reproduces FIGURE 7 of the paper: YCSB workloads A (50/50 read/update),
// B (95/5) and C (100/0 reads) over six concurrent maps:
//
//   ours        functional tree + PSWF-multiversioning + batched writer
//   cow-nobatch the same tree without batching (OpenBW stand-in / ablation)
//   skiplist    lock-free skiplist
//   ext-bst     lock-free external BST (Chromatic-tree stand-in)
//   b+tree      lock-coupling B+tree
//   hash        sharded hash map (Masstree stand-in)
//
// Paper setup: 5e7 keys, 1e7 ops, 144 hyperthreads, GC off. Defaults are
// laptop scale; MVCC_SCALE multiplies the key space, MVCC_THREADS sets the
// worker count. Expected shape: "ours" at or above the best baseline on all
// three mixes (the paper reports +20%-300%).
//
// Every cell is a duration-based steady-state run: workers start, the
// structure warms for MVCC_WARMUP_SECONDS, then per-thread op counters are
// snapshotted and the MVCC_SECONDS window is measured. Every 64th op inside
// the window is latency-sampled into log-bucketed histograms, reported as a
// second table of p50/p99/p999 read and update-op quantiles (for "ours" the
// update op is the async submit; sync commit latency is bench_batching's
// column and the txn/commit_latency_ns registry metric).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mvcc/baselines/bplustree.h"
#include "mvcc/baselines/cow_nobatch.h"
#include "mvcc/baselines/extbst.h"
#include "mvcc/baselines/sharded_hash.h"
#include "mvcc/baselines/skiplist.h"
#include "mvcc/common/timing.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"

namespace {

using namespace mvcc;
using workload::YcsbOp;
using workload::YcsbSpec;
using workload::YcsbStream;
using workload::ZipfGenerator;

template <template <typename> class VMImpl>
using OursMap =
    txn::ShardedMap<std::uint64_t, std::uint64_t,
                    ftree::NoAug<std::uint64_t, std::uint64_t>, VMImpl>;

struct CellConfig {
  std::uint64_t keys;
  int threads;
  double warmup;
  double seconds;
};

struct CellResult {
  double mops = 0;
  double read_us[3] = {0, 0, 0};  // p50, p99, p999
  double upd_us[3] = {0, 0, 0};
};

// Ops each worker has issued, one cache line per worker, summed on read.
class OpCounts {
 public:
  explicit OpCounts(int threads) : c_(static_cast<std::size_t>(threads)) {}
  void set(int t, std::uint64_t ops) {
    c_[static_cast<std::size_t>(t)].v.store(ops, std::memory_order_relaxed);
  }
  std::uint64_t total() const {
    std::uint64_t s = 0;
    for (const auto& c : c_) s += c.v.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct alignas(64) Padded {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Padded> c_;
};

// Steady-state cell shared by every structure. Adapter provides
// read(t, key) -> sink contribution and update(t, key, val); finish() runs
// after the workers join, outside the measured window.
template <class Adapter>
CellResult run_cell(Adapter& ad, const YcsbSpec& spec,
                    const ZipfGenerator& zipf, const CellConfig& cfg,
                    const std::string& label) {
  constexpr std::uint64_t kSampleMask = 63;  // every 64th op in the window
  std::atomic<std::uint64_t> sink{0};
  OpCounts counts(cfg.threads);
  obs::LatencyHistogram read_lat;
  obs::LatencyHistogram upd_lat;

  // Opened before the workers spawn: perf inherit only covers threads
  // created after the counters exist. Reports perf/<label>/* on scope exit.
  obs::PerfCell perf(label);
  const bench::Window w = bench::steady_state(
      cfg.threads, cfg.warmup, cfg.seconds,
      [&](int t, const bench::Phase& phase) {
        YcsbStream stream(spec, zipf, 1000 + static_cast<std::uint64_t>(t));
        std::uint64_t local = 0;
        std::uint64_t ops = 0;
        while (phase.running()) {
          const auto op = stream.next();
          const bool read = op.type == YcsbOp::kRead;
          auto issue = [&] {
            if (read) {
              local += ad.read(t, op.key);
            } else {
              ad.update(t, op.key, ops);
            }
          };
          if (phase.measuring() && (ops & kSampleMask) == kSampleMask) {
            Timer tm;
            issue();
            (read ? read_lat : upd_lat).record(tm.nanos());
          } else {
            issue();
          }
          counts.set(t, ++ops);
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      },
      {[&counts] { return counts.total(); }});
  ad.finish();

  CellResult r;
  r.mops = w.mops(0);
  const double qs[3] = {0.50, 0.99, 0.999};
  for (int i = 0; i < 3; ++i) {
    r.read_us[i] = read_lat.quantile(qs[i]) / 1e3;
    r.upd_us[i] = upd_lat.quantile(qs[i]) / 1e3;
  }
  return r;
}

// Plain concurrent-map interface (upsert/find).
template <typename M>
struct PlainAdapter {
  M& m;
  std::uint64_t read(int, std::uint64_t k) {
    auto v = m.find(k);
    return v.has_value() ? *v : 0;
  }
  void update(int, std::uint64_t k, std::uint64_t v) { m.upsert(k, v); }
  void finish() {}
};

template <typename M>
CellResult run_plain(M& m, const YcsbSpec& spec, const ZipfGenerator& zipf,
                     const CellConfig& cfg, const std::string& label) {
  const auto dataset = workload::ycsb_dataset(cfg.keys);
  for (const auto& [k, v] : dataset) m.upsert(k, v);
  PlainAdapter<M> ad{m};
  return run_cell(ad, spec, zipf, cfg, label);
}

// Our batched multiversion map, one shard (the paper's single batched
// writer): reads acquire the current version through the VM, updates are
// submissions to the batching writer; the final flush runs outside the
// window (at steady state admission control ties the submit rate to the
// commit rate, so counting submits is fair).
//
// The paper's Figure 7 turns GC off for every structure ("we are interested
// in the performance of the trees and not the GC"), which for ours means
// reads go straight to the current root with no version maintenance: that is
// the Base VM. The PSWF variant ("ours+gc") is reported as an extra column
// to show the full-system cost the paper's Table 2 measures separately.
template <template <typename> class VMImpl>
CellResult run_ours(const YcsbSpec& spec, const ZipfGenerator& zipf,
                    const CellConfig& cfg, const std::string& label) {
  using Map = OursMap<VMImpl>;
  Map map(cfg.threads, workload::ycsb_dataset(cfg.keys), /*shards=*/1);

  struct Adapter {
    Map& m;
    std::uint64_t read(int t, std::uint64_t k) {
      auto v = m.get(t, k);
      return v.has_value() ? *v : 0;
    }
    void update(int t, std::uint64_t k, std::uint64_t v) {
      m.submit(t, txn::BatchOp::kUpsert, k, v);
    }
    void finish() { m.flush_all(); }
  } ad{map};
  return run_cell(ad, spec, zipf, cfg, label);
}

// --- Sharded multi-writer scale-out (ROADMAP's "millions of users" lever)
//
// YCSB A over txn::ShardedMap at increasing shard counts, driven by the
// ScaleStore-style PARTITIONED driver: each producer runs a pre-generated
// op stream over its own contiguous key partition (Zipfian within the
// partition, zero generation cost in the loop), updates are async submits,
// and every 8192nd op takes a cross-shard snapshot and reads through it,
// exercising the version-vector validate-retry path under load. The
// update column is COMMITTED ops (the flattener ceiling sharding lifts),
// not submits; expected shape on a multi-core host is upd_mops rising
// monotonically with the shard count.
struct ShardedCell {
  double mops = 0;      // total issued ops (reads + update submits)
  double upd_mops = 0;  // committed updates across shards
  std::uint64_t snapshots = 0;
  std::uint64_t snap_retries = 0;
};

ShardedCell run_sharded(int nshards, const CellConfig& cfg) {
  constexpr std::uint64_t kSnapshotMask = 8191;  // every 8192nd op
  workload::PartitionedYcsb part(workload::kYcsbA, cfg.keys, cfg.threads);
  std::vector<std::vector<YcsbOp>> streams;
  streams.reserve(static_cast<std::size_t>(cfg.threads));
  for (int t = 0; t < cfg.threads; ++t) {
    streams.push_back(part.stream(t, std::size_t{1} << 15));
  }
  obs::PerfCell perf("sharded/s" + std::to_string(nshards));
  OursMap<vm::PswfVersionManager> map(
      cfg.threads, workload::ycsb_dataset(cfg.keys), nshards);

  std::atomic<std::uint64_t> sink{0};
  OpCounts counts(cfg.threads);
  const bench::Window w = bench::steady_state(
      cfg.threads, cfg.warmup, cfg.seconds,
      [&](int t, const bench::Phase& phase) {
        const auto& stream = streams[static_cast<std::size_t>(t)];
        std::uint64_t local = 0;
        std::uint64_t ops = 0;
        while (phase.running()) {
          const YcsbOp& op = stream[ops % stream.size()];
          if ((ops & kSnapshotMask) == kSnapshotMask) {
            auto snap = map.snapshot(t);
            const std::uint64_t* v = snap.find(op.key);
            local += v != nullptr ? *v : 0;
          } else if (op.type == YcsbOp::kRead) {
            auto v = map.get(t, op.key);
            local += v.has_value() ? *v : 0;
          } else {
            map.submit(t, txn::BatchOp::kUpsert, op.key, ops);
          }
          counts.set(t, ++ops);
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      },
      {[&counts] { return counts.total(); },
       [&map] { return map.ops_committed(); }});
  map.flush_all();

  ShardedCell r;
  r.mops = w.mops(0);
  r.upd_mops = w.mops(1);
  r.snapshots = map.snapshots_taken();
  r.snap_retries = map.snapshot_retries();
  return r;
}

}  // namespace

int main() {
  bench::ObsSession obs_session;
  CellConfig cfg;
  cfg.keys = static_cast<std::uint64_t>(config().scaled(200000));
  cfg.threads = static_cast<int>(env_long(
      "MVCC_THREADS",
      std::max(2u, std::thread::hardware_concurrency())));
  cfg.warmup = bench::warmup_seconds();
  cfg.seconds = bench::cell_seconds();

  ZipfGenerator zipf(cfg.keys, 0.99);
  const YcsbSpec specs[] = {workload::kYcsbA, workload::kYcsbB,
                            workload::kYcsbC};
  const char* columns[] = {"ours",     "ours+gc", "cow-nobatch", "skiplist",
                           "ext-bst",  "b+tree",  "hash"};
  constexpr int kStructures = 7;
  CellResult results[3][kStructures];

  for (int w = 0; w < 3; ++w) {
    const YcsbSpec& spec = specs[w];
    std::fprintf(stderr, "fig7: workload %s...\n", spec.name.data());
    const std::string wl(spec.name);
    results[w][0] =
        run_ours<vm::BaseVersionManager>(spec, zipf, cfg, wl + "/ours");
    results[w][1] =
        run_ours<vm::PswfVersionManager>(spec, zipf, cfg, wl + "/ours+gc");
    {
      baselines::CowTreeNoBatch m;
      results[w][2] = run_plain(m, spec, zipf, cfg, wl + "/cow-nobatch");
    }
    {
      baselines::LockFreeSkipList m;
      results[w][3] = run_plain(m, spec, zipf, cfg, wl + "/skiplist");
    }
    {
      baselines::ExternalBst m;
      results[w][4] = run_plain(m, spec, zipf, cfg, wl + "/ext-bst");
    }
    {
      baselines::BPlusTree m;
      results[w][5] = run_plain(m, spec, zipf, cfg, wl + "/b+tree");
    }
    {
      baselines::ShardedHashMap m(cfg.keys * 2);
      results[w][6] = run_plain(m, spec, zipf, cfg, wl + "/hash");
    }
  }

  bench::print_header("Figure 7: YCSB throughput (Mop/s), six structures");
  std::printf("(keys=%llu threads=%d warmup=%.2fs measure=%.2fs per cell; "
              "paper: 5e7 keys, 144 threads)\n",
              static_cast<unsigned long long>(cfg.keys), cfg.threads,
              cfg.warmup, cfg.seconds);
  bench::Table tput({"workload", "ours", "ours+gc", "cow-nobatch", "skiplist",
                     "ext-bst", "b+tree", "hash"});
  for (int w = 0; w < 3; ++w) {
    std::vector<std::string> row{std::string(specs[w].name)};
    for (int s = 0; s < kStructures; ++s) {
      row.push_back(bench::fmt(results[w][s].mops));
    }
    tput.add_row(std::move(row));
  }
  tput.print();

  bench::print_header(
      "Figure 7 steady-state latency (us, sampled every 64th op)");
  bench::Table lat({"structure", "workload", "read_p50_us", "read_p99_us",
                    "read_p999_us", "upd_p50_us", "upd_p99_us",
                    "upd_p999_us"});
  for (int s = 0; s < kStructures; ++s) {
    for (int w = 0; w < 3; ++w) {
      const CellResult& r = results[w][s];
      lat.add_row({columns[s], std::string(specs[w].name),
                   bench::fmt(r.read_us[0], 1), bench::fmt(r.read_us[1], 1),
                   bench::fmt(r.read_us[2], 1), bench::fmt(r.upd_us[0], 1),
                   bench::fmt(r.upd_us[1], 1), bench::fmt(r.upd_us[2], 1)});
    }
  }
  lat.print();

  bench::print_header(
      "Sharded YCSB A scale-out (partitioned driver, update = committed)");
  std::printf("(keys=%llu producers=%d warmup=%.2fs measure=%.2fs per row; "
              "snapshot every 8192nd op)\n",
              static_cast<unsigned long long>(cfg.keys), cfg.threads,
              cfg.warmup, cfg.seconds);
  bench::Table sharded_table(
      {"shards", "mops", "upd_mops", "snapshots", "snap_retries"});
  for (int n : bench::shard_counts()) {
    std::fprintf(stderr, "fig7: sharded shards=%d...\n", n);
    const ShardedCell r = run_sharded(n, cfg);
    sharded_table.add_row({std::to_string(n), bench::fmt(r.mops),
                           bench::fmt(r.upd_mops),
                           std::to_string(r.snapshots),
                           std::to_string(r.snap_retries)});
  }
  sharded_table.print();
  std::printf("expected shape: upd_mops rises monotonically with shards on "
              "a multi-core host\n(one flattener per shard; shards=1 is the "
              "single-flattener write ceiling).\n");

  if (obs::enabled()) {
    bench::print_header("metrics (obs registry)");
    std::fputs(obs::registry().dump_text("fig7/").c_str(), stdout);
  }
  return 0;
}

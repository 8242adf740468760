// Ablation for Appendix F: batch size vs throughput and latency. Sweeps the
// writer's max batch bound and reports steady-state update throughput, mean
// batch size, and p50/p99/p999 submit-to-commit latency -- the
// throughput/latency trade the paper calls out ("a larger batch size leads
// to higher throughput ... at the cost of longer latency"). A second table
// sweeps the shard count with a cross-shard commit as the latency probe;
// both drive txn::ShardedMap (one shard for the batch-bound sweep).
//
// Each cell is a duration-based steady-state run: producers start, the
// system warms for MVCC_WARMUP_SECONDS (rings filled, flattener batching at
// its equilibrium size, allocator warm), then counters are snapshotted and
// the measured window of MVCC_SECONDS begins. Latency samples are recorded
// into an obs::LatencyHistogram only inside the window.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;
using SMap = txn::ShardedMap<std::uint64_t, std::uint64_t,
                             ftree::NoAug<std::uint64_t, std::uint64_t>,
                             vm::PswfVersionManager>;

// The timed op a producer issues every `cadence` ops in place of a submit.
enum class Probe {
  kSync,   // upsert_sync: one shard's submit-to-commit latency
  kMulti,  // 2-key multi_upsert_sync: the cross-shard atomic commit
};

struct Result {
  double mops;
  double avg_batch;
  double p50_us;
  double p99_us;
  double p999_us;
};

// One steady-state cell: producers stream async submits of uniform keys
// (so the splitmix routing spreads them across every shard) and every
// `cadence`-th op is the timed probe. Throughput is committed ops across
// all flatteners.
Result run(const std::string& label, int shards, std::size_t max_batch,
           Probe probe, std::uint64_t cadence, std::uint64_t seed,
           int producers, double warmup, double seconds) {
  // Opened before the map and producer threads spawn: perf inherit only
  // covers threads created after the counters exist.
  obs::PerfCell perf(label);
  SMap map(producers, {}, shards, max_batch);
  obs::LatencyHistogram latency;
  const bench::Window w = bench::steady_state(
      producers, warmup, seconds,
      [&](int p, const bench::Phase& phase) {
        Xoshiro256 rng(static_cast<std::uint64_t>(p) + seed);
        for (std::uint64_t i = 0; phase.running(); ++i) {
          if (i % cadence != cadence - 1) {
            map.submit(p, txn::BatchOp::kUpsert, rng.next_below(100000), i);
            continue;
          }
          SMap::Entry ops[2] = {{rng.next_below(100000), i}, {0, i}};
          if (probe == Probe::kMulti) ops[1].first = rng.next_below(100000);
          Timer t;
          if (probe == Probe::kMulti) {
            map.multi_upsert_sync(p, std::span<const SMap::Entry>(ops));
          } else {
            map.upsert_sync(p, ops[0].first, i);
          }
          if (phase.measuring()) latency.record(t.nanos());
        }
      },
      {[&map] { return map.ops_committed(); },
       [&map] { return map.batches_committed(); }});
  map.flush_all();

  const std::uint64_t batches = w.deltas[1];
  return Result{w.mops(0),
                batches == 0 ? 0
                             : static_cast<double>(w.deltas[0]) /
                                   static_cast<double>(batches),
                latency.quantile(0.50) / 1e3, latency.quantile(0.99) / 1e3,
                latency.quantile(0.999) / 1e3};
}

void add_row(bench::Table& table, std::string key, const Result& r) {
  table.add_row({std::move(key), bench::fmt(r.mops), bench::fmt(r.avg_batch, 1),
                 bench::fmt(r.p50_us, 1), bench::fmt(r.p99_us, 1),
                 bench::fmt(r.p999_us, 1)});
}

}  // namespace

int main() {
  bench::ObsSession obs_session;
  const int producers = static_cast<int>(env_long("MVCC_THREADS", 2));
  const double warmup = bench::warmup_seconds();
  const double secs = bench::cell_seconds();
  bench::print_header("Batching ablation (Appendix F): batch bound sweep");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per cell; "
              "steady-state; reclaim=batch>=%zu)\n",
              producers, warmup, secs, txn::kDeferMinBatch);
  bench::Table table(
      {"max_batch", "mops", "avg_batch", "p50_us", "p99_us", "p999_us"});
  for (std::size_t mb : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                         std::size_t{4096}, std::size_t{65536}}) {
    std::fprintf(stderr, "batching: max_batch=%zu...\n", mb);
    // Latency probes are synchronous updates, and a sync producer parks
    // until its commit. Probing on a fixed fine cadence would cap batch
    // formation at the probe interval for every large bound — measuring
    // the probe, not the system — so the cadence scales with the batch
    // bound (floored and capped to keep samples flowing at smoke scale).
    const std::uint64_t sync_cadence = std::clamp<std::uint64_t>(
        4 * static_cast<std::uint64_t>(mb), 1024, 8192);
    add_row(table, std::to_string(mb),
            run("mb" + std::to_string(mb), /*shards=*/1, mb, Probe::kSync,
                sync_cadence, /*seed=*/17, producers, warmup, secs));
  }
  table.print();
  std::printf("expected shape: throughput grows with the batch bound while\n"
              "sampled commit latency grows too (throughput/latency trade).\n");

  // Sharded sweep: every 4096th op is a timed two-key multi_upsert_sync
  // whose keys almost always span two shards — the latency columns are the
  // price of the cross-shard atomic-commit protocol (epoch flip +
  // overlapped per-shard sync tickets).
  bench::print_header(
      "Sharded multi-writer sweep (latency = 2-key cross-shard commit)");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per row)\n",
              producers, warmup, secs);
  bench::Table sharded_table(
      {"shards", "mops", "avg_batch", "p50_us", "p99_us", "p999_us"});
  for (int n : bench::shard_counts()) {
    std::fprintf(stderr, "batching: shards=%d...\n", n);
    add_row(sharded_table, std::to_string(n),
            run("sharded-s" + std::to_string(n), n,
                /*max_batch=*/std::size_t{1} << 16, Probe::kMulti,
                /*cadence=*/4096, /*seed=*/31, producers, warmup, secs));
  }
  sharded_table.print();
  if (obs::enabled()) {
    bench::print_header("metrics (obs registry)");
    std::fputs(obs::registry().dump_text("batching/").c_str(), stdout);
  }
  return 0;
}

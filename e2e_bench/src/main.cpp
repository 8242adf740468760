// End-to-end benchmark of the public front-end
// txn::ShardedMap<u64, u64, NoAug, vm::PswfVersionManager> in its default
// configuration.
//
//   mvcc_e2e --workload <read-mostly|write-stream|sync-sharded>
//            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Untraced (--trace 0): builds the loaded map, runs the workload's
// generator threads through a warm-up and kWindows windows spanning
// --seconds, checks every output, times further set-up builds, and prints
// the end-to-end metrics (medians over windows).
//
// Traced (--trace 1): the same, but odd windows run with the obs/ registry
// on and benchmark-side spans around the sampled front-end calls; then the
// same generated ops are replayed stage by stage through each layer's
// public functions (ftree::prepare_batch, FMap::multi_inserted,
// PswfVersionManager::set/release, vm::reclaim_payloads; acquire/find/
// release for reads) at the batch size the untraced windows measured. It
// writes the span log and a per-layer self-time table to --out-dir and
// prints the per-layer metrics plus the tracing overhead (traced minus
// untraced windows).
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.h"
#include "mvcc/alloc/reclaim.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pswf.h"
#include "streams.h"

namespace e2e {
namespace {

using Map = mvcc::txn::ShardedMap<u64, u64, mvcc::ftree::NoAug<u64, u64>,
                                  mvcc::vm::PswfVersionManager>;
using FMap = Map::Map;
using Entry = Map::Entry;
using Node = mvcc::ftree::Node<u64, u64, mvcc::ftree::NoAug<u64, u64>>;

// A run measures kWindows contiguous windows on one map after a warm-up;
// rates and latency medians are medians over windows. Set-up builds are
// repeated until about kSetupKeys keys have been loaded (4 to 16 builds);
// setup_s is the median build.
constexpr int kWindows = 16;
constexpr u64 kSetupKeys = u64{16} << 20;
constexpr double kWarmupSeconds = 1.0;
// Closed-loop gets (and, when traced, submits) are timed one in kSampleEvery.
constexpr u64 kSampleEvery = 16;
constexpr std::size_t kSpanCap = std::size_t{1} << 19;
constexpr u64 kSampleIntervalNs = 5'000'000;
// An open-loop generator still behind this long after its window closes
// abandons the rest of its schedule.
constexpr u64 kGraceNs = 2'000'000'000;
constexpr double kReplayCommitSeconds = 1.0;
constexpr double kReplayReadSeconds = 0.3;
constexpr std::size_t kReplayMaxBatches = 20000;
constexpr std::size_t kReplayMaxReadRounds = 8192;
constexpr std::size_t kReplaySourceOps = std::size_t{1} << 18;
constexpr int kReadSlots = 256;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

enum Phase : int { kWarmup, kMeasure, kStop };

// One run of the generator threads on one map: a warm-up, then `windows`
// contiguous measurement windows. With tracing on, odd windows are traced.
struct Schedule {
  u64 start = 0;
  u64 measure = 0;
  u64 window_ns = 0;
  int windows = 0;
  bool trace = false;
  std::atomic<int> phase{kWarmup};
  std::atomic<int> window{0};  // the current window while measuring

  u64 end() const { return measure + window_ns * static_cast<u64>(windows); }
  bool traced(int w) const { return trace && w % 2 == 1; }
};

// What one generator thread measured in one window.
struct Samples {
  u64 gets = 0;
  std::vector<u64> get_ns, snap_ns, vis_ns, multi_ns, late_ns;
};

// One generator thread: its inputs, its stream cursor, its correctness
// tallies and its per-window samples.
struct ThreadState {
  const ThreadPlan* plan = nullptr;
  std::uint16_t id = 0;
  u64 next = 0;
  u64 multi_seq = 0;
  std::size_t pair_cursor = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Samples> windows;
  SpanLog spans;
};

// Counters read as deltas around a window (the registry ones move only
// while obs/ is on, i.e. in traced windows).
struct Counters {
  u64 ops = 0, batches = 0, snapshots = 0, retries = 0;
  u64 rejects = 0, stalls = 0, tasks = 0, steals = 0, transfers = 0;
  double cpu = 0;
  HostCpu host;

  static Counters read(const Map& m) {
    auto& r = mvcc::obs::registry();
    Counters c;
    c.ops = m.ops_committed();
    c.batches = m.batches_committed();
    c.snapshots = m.snapshots_taken();
    c.retries = m.snapshot_retries();
    c.rejects = r.counter("txn/admission_rejects").value();
    c.stalls = r.counter("txn/flattener_stalls").value();
    c.tasks = r.counter("exec/tasks").value();
    c.steals = r.counter("exec/steals").value();
    c.transfers = r.counter("alloc/depot_transfers").value();
    c.cpu = process_cpu_seconds();
    c.host = HostCpu::read();
    return c;
  }

  Counters minus(const Counters& b) const {
    Counters d;
    d.ops = ops - b.ops;
    d.batches = batches - b.batches;
    d.snapshots = snapshots - b.snapshots;
    d.retries = retries - b.retries;
    d.rejects = rejects - b.rejects;
    d.stalls = stalls - b.stalls;
    d.tasks = tasks - b.tasks;
    d.steals = steals - b.steals;
    d.transfers = transfers - b.transfers;
    d.cpu = cpu - b.cpu;
    d.host.total = host.total - b.host.total;
    d.host.steal = host.steal - b.host.steal;
    return d;
  }
};

struct WindowResult {
  int index = 0;
  bool traced = false;
  double seconds = 0;
  Tail read, snapshot, visible, multi, late;
  double read_mops = 0, commit_mops = 0, cpu_cores = 0, rss_peak_mb = 0;
  double live_versions_max = 0, live_mib_max = 0, slabs_live_max = 0;
  double submit_ns = 0;
  std::size_t submit_spans = 0;
  Counters delta;

  // Share of the machine's CPU time the hypervisor gave to other guests.
  double host_steal() const {
    return delta.host.total == 0 ? 0
                                 : static_cast<double>(delta.host.steal) /
                                       static_cast<double>(delta.host.total);
  }

  double batch_ops() const {
    return delta.batches == 0 ? 0
                              : static_cast<double>(delta.ops) /
                                    static_cast<double>(delta.batches);
  }
};

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

class Bench {
 public:
  explicit Bench(const Plan& plan) : plan_(plan), spec_(*plan.spec) {
    threads_.resize(plan.threads.size());
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      threads_[t].plan = &plan.threads[t];
      threads_[t].id = static_cast<std::uint16_t>(t);
      for (const auto& pr : plan.threads[t].pairs) all_pairs_.push_back(pr);
    }
    model_.assign(spec_.keys, 0);
  }

  int producers() const { return static_cast<int>(plan_.threads.size()); }

  // Generates the dataset and builds the loaded map `n` times (only the
  // builds are timed), keeping the last one. Returns the build times.
  std::vector<double> build(u64 n) {
    std::vector<double> times;
    for (u64 r = 0; r < n; ++r) {
      map_.reset();
      const u64 t0 = now_ns();
      auto data = make_dataset(spec_, plan_.seed);
      map_ = std::make_unique<Map>(producers(), std::move(data), spec_.shards);
      times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    std::fill(model_.begin(), model_.end(), 0);
    return times;
  }

  // Runs the generator threads through a warm-up and `windows` windows
  // spanning `seconds`, returning each window's measurements.
  std::vector<WindowResult> run(double seconds, int windows, bool trace) {
    Schedule sch;
    sch.trace = trace;
    sch.windows = windows;
    sch.window_ns = static_cast<u64>(seconds / windows * 1e9);
    sch.start = now_ns() + 2'000'000;
    sch.measure = sch.start + static_cast<u64>(kWarmupSeconds * 1e9);
    for (auto& s : threads_) {
      s.windows.assign(static_cast<std::size_t>(windows), Samples{});
      s.spans.reset(trace ? kSpanCap : 0, s.id);
    }
    std::vector<std::thread> workers;
    for (auto& s : threads_) {
      workers.emplace_back([this, &s, &sch] { drive(s, sch); });
    }
    std::vector<WindowResult> out(static_cast<std::size_t>(windows));
    sleep_until_ns(sch.measure);
    Counters c0 = Counters::read(*map_);
    u64 t0 = now_ns();
    sch.phase.store(kMeasure, std::memory_order_relaxed);
    for (int w = 0; w < windows; ++w) {
      WindowResult& r = out[static_cast<std::size_t>(w)];
      const u64 wend = sch.measure + sch.window_ns * static_cast<u64>(w + 1);
      double rss = 0, versions = 0, nodes = 0, slabs = 0;
      for (u64 t = now_ns(); t < wend; t += kSampleIntervalNs) {
        rss = std::max(rss, rss_bytes());
        versions = std::max(versions, static_cast<double>(
                                          mvcc::vm::g_live_versions.load(
                                              std::memory_order_relaxed)));
        nodes = std::max(nodes, static_cast<double>(mvcc::ftree::live_nodes()));
        slabs = std::max(slabs, static_cast<double>(mvcc::alloc::g_slabs_live.load(
                                    std::memory_order_relaxed)));
        sleep_until_ns(std::min(t + kSampleIntervalNs, wend));
      }
      const Counters c1 = Counters::read(*map_);
      const u64 t1 = now_ns();
      if (w + 1 < windows) {
        mvcc::obs::set_enabled(sch.traced(w + 1));
        sch.window.store(w + 1, std::memory_order_relaxed);
      }
      r.index = w;
      r.traced = sch.traced(w);
      r.seconds = static_cast<double>(t1 - t0) * 1e-9;
      r.delta = c1.minus(c0);
      r.commit_mops = static_cast<double>(r.delta.ops) / r.seconds * 1e-6;
      r.cpu_cores = r.delta.cpu / r.seconds;
      r.rss_peak_mb = rss / (1024.0 * 1024.0);
      r.live_versions_max = versions;
      r.live_mib_max = nodes * sizeof(Node) / (1024.0 * 1024.0);
      r.slabs_live_max = slabs;
      c0 = c1;
      t0 = t1;
    }
    sch.phase.store(kStop, std::memory_order_relaxed);
    for (auto& th : workers) th.join();
    mvcc::obs::set_enabled(false);

    for (int w = 0; w < windows; ++w) {
      WindowResult& r = out[static_cast<std::size_t>(w)];
      Samples all;
      for (const auto& s : threads_) {
        const Samples& x = s.windows[static_cast<std::size_t>(w)];
        all.gets += x.gets;
        for (auto [from, to] :
             {std::pair{&x.get_ns, &all.get_ns}, std::pair{&x.snap_ns, &all.snap_ns},
              std::pair{&x.vis_ns, &all.vis_ns}, std::pair{&x.multi_ns, &all.multi_ns},
              std::pair{&x.late_ns, &all.late_ns}}) {
          to->insert(to->end(), from->begin(), from->end());
        }
      }
      r.read_mops = static_cast<double>(all.gets) / r.seconds * 1e-6;
      r.read = tail_of(std::move(all.get_ns));
      r.snapshot = tail_of(std::move(all.snap_ns));
      r.visible = tail_of(std::move(all.vis_ns));
      r.multi = tail_of(std::move(all.multi_ns));
      r.late = tail_of(std::move(all.late_ns));
    }
    for (const auto& s : threads_) {
      for (const Span& sp : s.spans.spans()) {
        if (sp.name != kLiveSubmit || sp.t0 < sch.measure) continue;
        WindowResult& r = out[std::min<std::size_t>(
            out.size() - 1, (sp.t0 - sch.measure) / sch.window_ns)];
        r.submit_ns += static_cast<double>(sp.t1 - sp.t0);
        ++r.submit_spans;
      }
      live_spans_.insert(live_spans_.end(), s.spans.spans().begin(),
                         s.spans.spans().end());
      dropped_spans_ += s.spans.dropped();
    }
    for (auto& r : out) {
      r.submit_ns = ratio(r.submit_ns, static_cast<double>(r.submit_spans));
    }
    return out;
  }

  // Latency samples pooled over the given windows, for the tails: one
  // window holds too few samples beyond p99.
  std::array<Tail, 4> pooled_tails(const std::vector<WindowResult>& ws) const {
    std::vector<u64> v[4];
    for (const auto& s : threads_) {
      for (const WindowResult& w : ws) {
        const Samples& x = s.windows[static_cast<std::size_t>(w.index)];
        v[0].insert(v[0].end(), x.get_ns.begin(), x.get_ns.end());
        v[1].insert(v[1].end(), x.snap_ns.begin(), x.snap_ns.end());
        v[2].insert(v[2].end(), x.vis_ns.begin(), x.vis_ns.end());
        v[3].insert(v[3].end(), x.multi_ns.begin(), x.multi_ns.end());
      }
    }
    return {tail_of(std::move(v[0])), tail_of(std::move(v[1])),
            tail_of(std::move(v[2])), tail_of(std::move(v[3]))};
  }

  // After the last window: every op committed, the final map equals the
  // reference model key for key. Returns the failed checks.
  u64 check_final_state() {
    map_->flush_all();
    auto snap = map_->snapshot(0);
    u64 failed = 0, seen = 0;
    for (std::size_t s = 0; s < snap.shards(); ++s) {
      snap.shard_map(s).for_each([&](const u64& k, const u64& v) {
        ++seen;
        const u64 want =
            k < model_.size() && model_[k] != 0 ? model_[k]
                                                : loaded_value(plan_.seed, k);
        if (v != want || shard_of(k, spec_.shards) != s) ++failed;
      });
    }
    failed += seen > spec_.keys ? seen - spec_.keys : spec_.keys - seen;
    return failed;
  }

  // A pinned copy of shard 0's final tree: the replay's starting map.
  FMap shard0_map() {
    auto snap = map_->snapshot(0);
    return snap.shard_map(0);
  }

  void teardown() { map_.reset(); }

  u64 attempted() const {
    u64 n = 0;
    for (const auto& s : threads_) n += s.attempted;
    return n;
  }
  u64 failed() const {
    u64 n = 0;
    for (const auto& s : threads_) n += s.failed;
    return n;
  }
  const std::vector<Span>& live_spans() const { return live_spans_; }
  u64 dropped_spans() const { return dropped_spans_; }

 private:
  void drive(ThreadState& s, const Schedule& sch) {
    const ThreadPlan& tp = *s.plan;
    const bool open = tp.spec.open_loop;
    const double period_ns = tp.spec.rate > 0 ? 1e9 / tp.spec.rate : 0;
    if (period_ns > 0) tighten_timer_slack();
    const u64 end = sch.end();
    const u64 i0 = s.next;
    const int slot = tp.slot;
    for (;;) {
      const u64 i = s.next;
      // Scheduled start of op i (open-loop and paced threads). Open-loop
      // writes are timed from it, so a stall also counts against the ops
      // queued behind it; reads are timed from the call, and how late the
      // generator sends is measured on its own (late_ns).
      const u64 due =
          period_ns > 0
              ? sch.start + static_cast<u64>(static_cast<double>(i - i0) * period_ns)
              : 0;
      int wi = -1;  // the window op i is measured in; -1 = warm-up
      if (open) {
        if (due >= end) break;
        const u64 now = now_ns();
        if (now < due) {
          sleep_until_ns(due);
        } else if (now > end + kGraceNs) {
          break;
        }
        if (due >= sch.measure) {
          wi = static_cast<int>((due - sch.measure) / sch.window_ns);
          s.windows[static_cast<std::size_t>(wi)].late_ns.push_back(now_ns() - due);
        }
      } else {
        if (period_ns > 0) sleep_until_ns(due);
        const int ph = sch.phase.load(std::memory_order_relaxed);
        if (ph == kStop) break;
        if (ph == kMeasure) wi = sch.window.load(std::memory_order_relaxed);
      }
      Samples* out = wi >= 0 ? &s.windows[static_cast<std::size_t>(wi)] : nullptr;
      const bool measuring = out != nullptr;
      const bool traced = measuring && sch.traced(wi);
      ++s.next;
      ++s.attempted;
      const Op op = tp.ops[i % tp.ops.size()];
      const u64 key = op.key;
      const u64 req = (u64{s.id} << 48) | i;
      switch (op.kind) {
        case Kind::kGet: {
          const bool timed = open || i % kSampleEvery == 0;
          const u64 t0 = timed ? now_ns() : 0;
          const std::optional<u64> v = map_->get(slot, key);
          if (timed && measuring) {
            const u64 t1 = now_ns();
            out->get_ns.push_back(t1 - t0);
            if (traced) s.spans.add(kLiveGet, t0, t1, req);
          }
          if (measuring) ++out->gets;
          if (!v || !valid_value(plan_.seed, key, *v)) ++s.failed;
          break;
        }
        case Kind::kSnapshot: {
          const u64 t0 = now_ns();
          auto snap = map_->snapshot(slot);
          const u64* v = snap.find(key);
          const u64 t1 = now_ns();
          if (measuring) {
            out->snap_ns.push_back(t1 - t0);
            if (traced) s.spans.add(kLiveSnapshot, t0, t1, req);
          }
          if (v == nullptr || !valid_value(plan_.seed, key, *v)) ++s.failed;
          s.failed += check_pair(snap, s.pair_cursor++);
          break;
        }
        case Kind::kSubmit: {
          const u64 v = written_value(key, i);
          if (traced && i % kSampleEvery == 0) {
            const u64 t0 = now_ns();
            map_->submit(slot, mvcc::txn::BatchOp::kUpsert, key, v);
            s.spans.add(kLiveSubmit, t0, now_ns(), req);
          } else {
            map_->submit(slot, mvcc::txn::BatchOp::kUpsert, key, v);
          }
          model_[key] = v;
          break;
        }
        case Kind::kSync: {
          const u64 v = written_value(key, i);
          const u64 t0 = open ? due : now_ns();
          map_->upsert_sync(slot, key, v);
          const u64 t1 = now_ns();
          if (measuring) {
            out->vis_ns.push_back(t1 - t0);
            if (traced) s.spans.add(kLiveSync, t0, t1, req);
          }
          model_[key] = v;
          break;
        }
        case Kind::kMulti: {
          const auto [a, b] = tp.pairs[key];
          const u64 m = ++s.multi_seq;
          const std::array<Entry, 2> ops = {Entry{a, written_value(a, m)},
                                            Entry{b, written_value(b, m)}};
          const u64 t0 = open ? due : now_ns();
          map_->multi_upsert_sync(slot, std::span<const Entry>(ops));
          const u64 t1 = now_ns();
          if (measuring) {
            out->multi_ns.push_back(t1 - t0);
            if (traced) s.spans.add(kLiveMulti, t0, t1, req);
          }
          model_[a] = ops[0].second;
          model_[b] = ops[1].second;
          break;
        }
      }
    }
  }

  // A snapshot must see every multi-key commit all or nothing: both keys
  // of a pair still loaded, or both written by the same commit.
  u64 check_pair(const Map::Snapshot& snap, std::size_t cursor) const {
    if (all_pairs_.empty()) return 0;
    const auto [a, b] = all_pairs_[cursor % all_pairs_.size()];
    const u64* va = snap.find(a);
    const u64* vb = snap.find(b);
    if (va == nullptr || vb == nullptr) return 1;
    if (!valid_value(plan_.seed, a, *va) || !valid_value(plan_.seed, b, *vb)) {
      return 1;
    }
    const bool wa = (*va & kWrittenBit) != 0;
    const bool wb = (*vb & kWrittenBit) != 0;
    if (wa != wb) return 1;
    return wa && seq_of(*va) != seq_of(*vb) ? 1 : 0;
  }

  const Plan& plan_;
  const WorkloadSpec& spec_;
  std::unique_ptr<Map> map_;
  std::vector<ThreadState> threads_;
  std::vector<std::pair<u64, u64>> all_pairs_;
  // Last value each key was written to (0 = still loaded). Every key has
  // exactly one writing thread, so threads never write the same element.
  std::vector<u64> model_;
  std::vector<Span> live_spans_;
  u64 dropped_spans_ = 0;
};

// --- Stage replay ---------------------------------------------------------

struct ReplayResult {
  u64 failed = 0;  // replayed reads that found no valid value
  std::size_t batches = 0;
  std::size_t ops = 0;
  std::size_t reads = 0;
  std::map<std::uint16_t, double> total_ns;  // by span name
  double commit_ns = 0;                      // sum of replay.commit spans
  double stage_ns = 0;                       // sum of its children's self time
  std::vector<Span> spans;
};

// The writer threads' single-key writes routed to shard 0, interleaved in
// stream order (the ring drain's round-robin), as the replay's op source.
std::vector<Entry> replay_source(const Plan& plan) {
  std::vector<Entry> src;
  const int shards = plan.spec->shards;
  std::size_t longest = 0;
  for (const auto& t : plan.threads) longest = std::max(longest, t.ops.size());
  for (std::size_t i = 0; i < longest && src.size() < kReplaySourceOps; ++i) {
    for (const auto& t : plan.threads) {
      if (i >= t.ops.size()) continue;
      const Op& op = t.ops[i];
      if (op.kind != Kind::kSubmit && op.kind != Kind::kSync) continue;
      if (shard_of(op.key, shards) != 0) continue;
      src.emplace_back(op.key, written_value(op.key, i));
    }
  }
  return src;
}

std::vector<u64> replay_read_keys(const Plan& plan) {
  std::vector<u64> keys;
  const int shards = plan.spec->shards;
  for (const auto& t : plan.threads) {
    for (const Op& op : t.ops) {
      if (op.kind != Kind::kGet && op.kind != Kind::kSnapshot) continue;
      if (shard_of(op.key, shards) == 0) keys.push_back(op.key);
      if (keys.size() >= kReplaySourceOps) return keys;
    }
  }
  return keys;
}

// Drives the commit path stage by stage over `base` (a map of the live
// shard's size) with batches of `batch` ops, then the read path, timing
// each call into a layer as a span. Uses VM slot counts matching the live
// map so set's help pass scans as many slots.
ReplayResult replay(const Plan& plan, const FMap& base, std::size_t batch,
                    int producers) {
  using VM = mvcc::vm::PswfVersionManager<FMap>;
  ReplayResult r;
  SpanLog log;
  log.reset(kReplayMaxBatches * 10 + kReplayMaxReadRounds * 4, 0xffff);
  const std::vector<Entry> src = replay_source(plan);
  if (!src.empty()) {
    VM vm(producers + 1, mvcc::alloc::create<FMap>(base));
    const int w = producers;
    std::vector<Entry> ops;
    ops.reserve(batch);
    std::size_t pos = 0;
    const u64 deadline = now_ns() + static_cast<u64>(kReplayCommitSeconds * 1e9);
    for (std::size_t b = 0; b < kReplayMaxBatches && now_ns() < deadline; ++b) {
      const u64 start = now_ns();
      const std::uint32_t root = log.open(kReplayCommit, start, b);
      u64 t0 = now_ns();
      ops.clear();
      for (std::size_t j = 0; j < batch; ++j) ops.push_back(src[pos++ % src.size()]);
      u64 t1 = now_ns();
      log.add(kStageDrain, t0, t1, b, root);
      t0 = now_ns();
      FMap* cur = vm.acquire(w);
      t1 = now_ns();
      log.add(kStageAcquire, t0, t1, b, root);
      t0 = now_ns();
      mvcc::ftree::prepare_batch(ops);
      t1 = now_ns();
      log.add(kStagePrepare, t0, t1, b, root);
      t0 = now_ns();
      FMap next = cur->multi_inserted(std::span<const Entry>(ops));
      t1 = now_ns();
      log.add(kStageInsert, t0, t1, b, root);
      t0 = now_ns();
      FMap* fresh = mvcc::alloc::create<FMap>(std::move(next));
      t1 = now_ns();
      log.add(kStageCreate, t0, t1, b, root);
      t0 = now_ns();
      std::vector<FMap*> dead = vm.set(w, fresh);
      t1 = now_ns();
      log.add(kStageSet, t0, t1, b, root);
      t0 = now_ns();
      mvcc::vm::reclaim_payloads(std::move(dead), mvcc::alloc::PoolDispose{});
      t1 = now_ns();
      log.add(kStageCollect, t0, t1, b, root);
      t0 = now_ns();
      std::vector<FMap*> released = vm.release(w);
      t1 = now_ns();
      log.add(kStageRelease, t0, t1, b, root);
      t0 = now_ns();
      mvcc::vm::reclaim_payloads(std::move(released),
                                 mvcc::alloc::PoolDispose{});
      t1 = now_ns();
      log.add(kStageCollect, t0, t1, b, root);
      log.close(root, now_ns());
      ++r.batches;
      r.ops += batch;
    }
    for (FMap* m : vm.shutdown_drain()) mvcc::alloc::destroy(m);
  }

  const std::vector<u64> keys = replay_read_keys(plan);
  if (!keys.empty()) {
    VM rvm(kReadSlots, mvcc::alloc::create<FMap>(base));
    std::array<FMap*, kReadSlots> held{};
    std::array<const u64*, kReadSlots> found{};
    std::array<u64, kReadSlots> asked{};
    std::size_t pos = 0;
    const u64 deadline = now_ns() + static_cast<u64>(kReplayReadSeconds * 1e9);
    for (u64 round = 0; round < kReplayMaxReadRounds && now_ns() < deadline;
         ++round) {
      const u64 t0 = now_ns();
      for (int p = 0; p < kReadSlots; ++p) held[p] = rvm.acquire(p);
      const u64 t1 = now_ns();
      for (int p = 0; p < kReadSlots; ++p) {
        asked[p] = keys[pos++ % keys.size()];
        found[p] = held[p]->find(asked[p]);
      }
      const u64 t2 = now_ns();
      // Every replayed key is loaded: the find must return a valid value
      // (checked untimed, while the versions are still pinned).
      for (int p = 0; p < kReadSlots; ++p) {
        if (found[p] == nullptr || !valid_value(plan.seed, asked[p], *found[p])) {
          ++r.failed;
        }
      }
      const u64 t2r = now_ns();
      for (int p = 0; p < kReadSlots; ++p) {
        mvcc::vm::reclaim_payloads(rvm.release(p), mvcc::alloc::PoolDispose{});
      }
      const u64 t3 = now_ns();
      const std::uint32_t root = log.add(kReplayRead, t0, t3, round);
      log.add(kReadAcquire, t0, t1, round, root);
      log.add(kReadFind, t1, t2, round, root);
      log.add(kReadRelease, t2r, t3, round, root);
      r.reads += kReadSlots;
    }
    for (FMap* m : rvm.shutdown_drain()) mvcc::alloc::destroy(m);
  }

  r.spans = log.spans();
  std::vector<double> child(r.spans.size(), 0);
  for (const Span& sp : r.spans) {
    if (sp.parent != 0) child[sp.parent - 1] += static_cast<double>(sp.t1 - sp.t0);
  }
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& sp = r.spans[i];
    const double dur = static_cast<double>(sp.t1 - sp.t0);
    r.total_ns[sp.name] += dur;
    if (sp.name == kReplayCommit) r.commit_ns += dur;
    if (sp.parent != 0 && r.spans[sp.parent - 1].name == kReplayCommit) {
      r.stage_ns += dur - child[i];
    }
  }
  return r;
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string tail_note(const Tail& t, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: p50 and p%.1f of n=%zu", what,
                t.q * 100.0, t.n);
  return buf;
}

// The gated end-to-end metrics of one window (BENCHMARK.json end_to_end;
// the caller adds setup_s): steady within their bounds on every workload.
std::vector<Metric> gated_metrics(const WindowResult& r) {
  return {
      {"read_mops", r.read_mops, "Mop/s", "completed get calls per second"},
      {"read_p50_us", r.read.p50 * 1e-3, "us", tail_note(r.read, "get")},
      {"commit_mops", r.commit_mops, "Mop/s", "ops_committed delta per second"},
      {"cpu_cores", r.cpu_cores, "cores", "process CPU-s per wall-s"},
      {"rss_peak_mb", r.rss_peak_mb, "MiB", "peak RSS sampled every 5 ms"},
  };
}

// Latency medians of one window that are printed, and reported per layer
// by traced runs, but not gated: with no code change they swing with the
// map's spin-waits and fork-join wake-ups (see README.md).
std::vector<Metric> latency_metrics(const WindowResult& r) {
  return {
      {"snapshot_p50_us", r.snapshot.p50 * 1e-3, "us",
       tail_note(r.snapshot, "snapshot+find")},
      {"visible_p50_us", r.visible.p50 * 1e-3, "us",
       tail_note(r.visible, "upsert_sync")},
      {"multi_p50_us", r.multi.p50 * 1e-3, "us",
       tail_note(r.multi, "multi_upsert_sync")},
  };
}

// The p99 tails over the pooled samples of all untraced windows (read,
// snapshot, visible, multi); not gated, like latency_metrics.
std::vector<Metric> tail_metrics(const std::array<Tail, 4>& t) {
  return {
      {"read_p99_us", t[0].tail * 1e-3, "us", tail_note(t[0], "get")},
      {"snapshot_p99_us", t[1].tail * 1e-3, "us",
       tail_note(t[1], "snapshot+find")},
      {"visible_p99_us", t[2].tail * 1e-3, "us", tail_note(t[2], "upsert_sync")},
      {"multi_p99_us", t[3].tail * 1e-3, "us",
       tail_note(t[3], "multi_upsert_sync")},
  };
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Elementwise median over windows of equally shaped metric lists; the note
// is the first window's plus the range over windows.
std::vector<Metric> median_of(const std::vector<std::vector<Metric>>& windows) {
  std::vector<Metric> out = windows.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& w : windows) v.push_back(w[i].value);
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    char buf[96];
    std::snprintf(buf, sizeof(buf), "; median of %zu windows in [%.4g, %.4g]",
                  v.size(), *lo, *hi);
    out[i].note += buf;
    out[i].value = median(std::move(v));
  }
  return out;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("  %-34s %14.6g %-6s  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_json(bool correct, u64 attempted, u64 failed,
                const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Writes every span (live calls and replay) and the per-layer self-time
// table next to each other in out_dir.
void write_spans(const std::string& out_dir, const std::string& tag,
                 const std::vector<Span>& live, const ReplayResult& rp) {
  const std::string path = out_dir + "/spans-" + tag + ".tsv";
  FILE* f = std::fopen(path.c_str(), "w");
  std::map<std::string, std::pair<u64, double>> layers;
  auto emit = [&](const std::vector<Span>& spans) {
    std::vector<double> child(spans.size(), 0);
    for (const Span& sp : spans) {
      if (sp.parent != 0) child[sp.parent - 1] += static_cast<double>(sp.t1 - sp.t0);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      const double self = static_cast<double>(sp.t1 - sp.t0) - child[i];
      auto& l = layers[layer_of(sp.name)];
      ++l.first;
      l.second += self;
      if (f != nullptr) {
        std::fprintf(f, "%u\t%zu\t%u\t%llu\t%s\t%llu\t%llu\t%.0f\n", sp.thread,
                     i + 1, sp.parent, static_cast<unsigned long long>(sp.req),
                     span_name(sp.name), static_cast<unsigned long long>(sp.t0),
                     static_cast<unsigned long long>(sp.t1), self);
      }
    }
  };
  if (f != nullptr) {
    std::fprintf(f, "thread\tid\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n");
  }
  emit(live);
  emit(rp.spans);
  if (f != nullptr) std::fclose(f);

  const std::string lpath = out_dir + "/layers-" + tag + ".tsv";
  FILE* lf = std::fopen(lpath.c_str(), "w");
  double total = 0;
  for (const auto& [name, l] : layers) total += l.second;
  std::printf("  per-layer self time (live spans + replay), %s:\n", path.c_str());
  if (lf != nullptr) std::fprintf(lf, "layer\tspans\tself_ns\tshare\n");
  for (const auto& [name, l] : layers) {
    std::printf("    %-8s spans=%-9llu self=%12.3f ms  share=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(l.first),
                l.second * 1e-6, ratio(l.second, total));
    if (lf != nullptr) {
      std::fprintf(lf, "%s\t%llu\t%.0f\t%.6f\n", name.c_str(),
                   static_cast<unsigned long long>(l.first), l.second,
                   ratio(l.second, total));
    }
  }
  if (lf != nullptr) std::fclose(lf);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

// The half of `ws` with the least host steal. On a shared VM, other guests
// take the vCPUs in bursts of seconds (up to a fifth of the CPU time, which
// cut write-stream throughput by 40%); the benchmark measures the program,
// so medians skip the most-stolen windows.
std::vector<WindowResult> least_stolen_half(std::vector<WindowResult> ws) {
  std::stable_sort(ws.begin(), ws.end(),
                   [](const WindowResult& a, const WindowResult& b) {
                     return a.host_steal() < b.host_steal();
                   });
  ws.resize((ws.size() + 1) / 2);
  return ws;
}

// Per-layer metrics of one traced window.
std::vector<Metric> traced_metrics(const WindowResult& tr) {
  const double kop = static_cast<double>(tr.delta.ops) / 1000.0;
  const double batches = static_cast<double>(tr.delta.batches);
  return {
      {"txn.submit_ns", tr.submit_ns, "ns",
       "mean of " + std::to_string(tr.submit_spans) + " traced submit spans"},
      {"txn.admission_rejects_per_kop", ratio(tr.delta.rejects, kop), "1/kop",
       "txn/admission_rejects"},
      {"txn.flattener_stalls_per_batch", ratio(tr.delta.stalls, batches),
       "ratio", "txn/flattener_stalls"},
      {"txn.snapshot_retry_ratio",
       ratio(tr.delta.retries, static_cast<double>(tr.delta.snapshots)),
       "ratio", "snapshot_retries / snapshots_taken"},
      {"vm.live_versions_max", tr.live_versions_max, "count",
       "sampled vm::g_live_versions"},
      {"ftree.live_bytes_max", tr.live_mib_max, "MiB",
       "sampled live_nodes x node size"},
      {"alloc.depot_transfers_per_kop", ratio(tr.delta.transfers, kop),
       "1/kop", "alloc/depot_transfers"},
      {"alloc.slabs_live_max", tr.slabs_live_max, "count",
       "sampled alloc::g_slabs_live"},
      {"exec.tasks_per_batch", ratio(tr.delta.tasks, batches), "ratio",
       "exec/tasks"},
      {"exec.steal_ratio",
       ratio(tr.delta.steals, static_cast<double>(tr.delta.tasks)), "ratio",
       "exec/steals / exec/tasks"},
  };
}

std::vector<Metric> replay_metrics(const ReplayResult& r) {
  const double ops = static_cast<double>(r.ops);
  const double reads = static_cast<double>(r.reads);
  auto total = [&r](std::uint16_t n) {
    const auto it = r.total_ns.find(n);
    return it == r.total_ns.end() ? 0.0 : it->second;
  };
  return {
      {"vm.acquire_ns", ratio(total(kReadAcquire), reads), "ns",
       "replay, runs of 256 calls"},
      {"vm.release_ns", ratio(total(kReadRelease), reads), "ns",
       "replay, runs of 256 calls"},
      {"vm.set_ns", ratio(total(kStageSet), static_cast<double>(r.batches)),
       "ns", "replay, per commit"},
      {"ftree.find_ns", ratio(total(kReadFind), reads), "ns",
       "replay, runs of 256 calls"},
      {"ftree.prepare_ns_per_op", ratio(total(kStagePrepare), ops), "ns",
       "replay"},
      {"ftree.insert_ns_per_op", ratio(total(kStageInsert), ops), "ns",
       "replay"},
      {"ftree.collect_ns_per_op", ratio(total(kStageCollect), ops), "ns",
       "replay, reclaim_payloads(PoolDispose)"},
      {"replay.stage_share", ratio(r.stage_ns, r.commit_ns), "ratio",
       "stage self time / replayed commit time (check >= 0.9)"},
  };
}

bool above_baseline(long long nodes_baseline) {
  return mvcc::ftree::live_nodes() != nodes_baseline ||
         mvcc::vm::g_live_versions.load() != 0;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (u64 k = 0; k < 4096; ++k) {
    if (shard_of(k, spec->shards) !=
        Map::shard_index(k, static_cast<std::size_t>(spec->shards))) {
      std::fprintf(stderr, "benchmark shard routing disagrees with the map\n");
      return 2;
    }
  }
  // End-to-end numbers are taken with obs/ off whatever the environment
  // says; traced windows switch it on.
  mvcc::obs::set_enabled(false);
  const long long nodes_baseline = mvcc::ftree::live_nodes();

  const Plan plan = make_plan(*spec, args.seed);
  Bench bench(plan);
  // The measured map is the first one built, on fresh memory; the other
  // timed builds run after the windows, so neither their freed nodes (the
  // slab pool keeps them resident) nor their recycling of the pool shows
  // in the windows.
  std::vector<double> setups = bench.build(1);
  std::vector<WindowResult> plain, traced;
  std::vector<double> steal;
  for (WindowResult& w : bench.run(args.seconds, kWindows, args.trace)) {
    steal.push_back(w.host_steal());
    (w.traced ? traced : plain).push_back(std::move(w));
  }
  plain = least_stolen_half(std::move(plain));
  if (!traced.empty()) traced = least_stolen_half(std::move(traced));
  u64 failed = bench.failed() + bench.check_final_state();
  std::optional<FMap> shard0;
  if (args.trace) shard0 = bench.shard0_map();
  bench.teardown();
  // Precise GC: once the map and every snapshot are gone, every tree node
  // and every retired version has been freed.
  bool leak = !shard0 && above_baseline(nodes_baseline);

  std::vector<std::vector<Metric>> gated_w, latency_w, traced_gated_w,
      traced_latency_w, layer_w;
  std::vector<double> batch_ops, late;
  for (const auto& w : plain) {
    gated_w.push_back(gated_metrics(w));
    latency_w.push_back(latency_metrics(w));
    batch_ops.push_back(w.batch_ops());
    late.push_back(w.late.tail * 1e-3);
  }
  for (const auto& w : traced) {
    traced_gated_w.push_back(gated_metrics(w));
    traced_latency_w.push_back(latency_metrics(w));
    layer_w.push_back(traced_metrics(w));
  }
  const std::vector<Metric> e2e_windows = median_of(gated_w);
  std::vector<Metric> latency = median_of(latency_w);
  const std::array<Tail, 4> tails = bench.pooled_tails(plain);
  for (const Metric& m : tail_metrics(tails)) latency.push_back(m);

  std::optional<ReplayResult> rp;
  std::size_t batch = 1;
  if (args.trace) {
    batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(median(batch_ops))));
    rp = replay(plan, *shard0, batch, bench.producers());
    failed += rp->failed;
    shard0.reset();
    if (above_baseline(nodes_baseline)) leak = true;
  }
  const u64 builds = std::clamp<u64>(kSetupKeys / spec->keys, 4, 16);
  for (double s : bench.build(builds - 1)) setups.push_back(s);
  bench.teardown();
  if (above_baseline(nodes_baseline)) leak = true;
  failed += leak ? 1 : 0;
  const u64 attempted = bench.attempted();
  std::vector<Metric> e2e = {{"setup_s", median(setups), "s",
                              "median of " + std::to_string(setups.size()) +
                                  " dataset+map builds"}};
  e2e.insert(e2e.end(), e2e_windows.begin(), e2e_windows.end());

  std::string roles;
  for (const auto& t : plan.threads) {
    roles += (roles.empty() ? "" : ",") + std::string(t.spec.role);
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d  threads %s  "
              "keys %llu  shards %d  windows %d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, roles.c_str(),
              static_cast<unsigned long long>(spec->keys), spec->shards,
              kWindows);
  std::printf(" end-to-end (gated):\n");
  print_metrics(e2e);
  const double error_rate = ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));
  std::printf("  %-34s %14.6g %-6s  failed %llu of %llu attempted%s\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              leak ? " (live nodes/versions above baseline after teardown)"
                   : "");
  std::printf(" end-to-end latency (not gated: swings with spin-waits):\n");
  print_metrics(latency);
  std::printf("  %-34s %14.6g %-6s  guard: open-loop send minus due\n",
              "workload.late_p99_us", median(late), "us");
  std::printf("  %-34s %14.6g %-6s  ops_committed / batches_committed\n",
              "txn.batch_ops", median(batch_ops), "ops");
  std::printf("  %-34s %14.6g %-6s  all windows, max %.4g; medians use the "
              "least-stolen half\n",
              "host.steal_share", median(steal), "ratio",
              *std::max_element(steal.begin(), steal.end()));

  // Every op kind the workload issues must have been measured.
  bool correct = failed == 0;
  const Kind kinds[4] = {Kind::kGet, Kind::kSnapshot, Kind::kSync, Kind::kMulti};
  for (int k = 0; k < 4; ++k) {
    for (const auto& t : plan.threads) {
      if (has_kind(t.spec.mix, kinds[k]) && tails[k].n == 0) correct = false;
    }
  }
  if (!args.trace) {
    print_json(correct, attempted, failed, e2e);
    return 0;
  }

  std::vector<Metric> layer = {
      {"workload.late_p99_us", median(late), "us",
       "untraced windows, send minus due"},
      {"txn.batch_ops", median(batch_ops), "ops", "untraced windows; the replay cut"}};
  for (const Metric& m : median_of(layer_w)) layer.push_back(m);
  for (const Metric& m : replay_metrics(*rp)) layer.push_back(m);
  for (const Metric& m : latency) layer.push_back(m);
  // Tracing overhead: traced minus untraced windows, per end-to-end metric
  // (set-up is untraced in both; the pooled tails are untraced only).
  const std::vector<Metric> traced_gated = median_of(traced_gated_w);
  const std::vector<Metric> traced_latency = median_of(traced_latency_w);
  auto overhead = [&layer](const Metric& tr, const Metric& base) {
    layer.push_back({"overhead." + base.name, tr.value - base.value, base.unit,
                     "traced " + fmt(tr.value)});
  };
  for (std::size_t i = 0; i < traced_gated.size(); ++i) {
    overhead(traced_gated[i], e2e_windows[i]);
  }
  for (std::size_t i = 0; i < traced_latency.size(); ++i) {
    overhead(traced_latency[i], latency[i]);
  }
  const ReplayResult& r = *rp;
  std::printf(" per layer (traced windows and stage replay: %zu batches of %zu "
              "ops, %zu reads; %zu live spans, %llu dropped):\n",
              r.batches, batch, r.reads, bench.live_spans().size(),
              static_cast<unsigned long long>(bench.dropped_spans()));
  print_metrics(layer);
  const std::string tag =
      std::string(spec->name) + "-seed" + std::to_string(args.seed);
  write_spans(args.out_dir, tag, bench.live_spans(), r);
  const double share = ratio(r.stage_ns, r.commit_ns);
  if (r.batches == 0 || share < 0.9) {
    std::printf("  replay check failed: stage share %.3f over %zu batches\n",
                share, r.batches);
    correct = false;
  }
  print_json(correct, attempted, failed, layer);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return e2e::run(args);
}

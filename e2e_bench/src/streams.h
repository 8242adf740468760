// Seeded inputs of the end-to-end benchmark: the three workload shapes,
// the loaded dataset, and every thread's pre-generated op stream.
//
// Everything the map receives is generated here from the --seed argument
// before the measured window starts (the PartitionedYcsb pattern), so a
// seed fixes the inputs exactly and the measured loop pays no generation
// cost. Values are self-describing so every read can be checked without a
// lookup table:
//
//   loaded(k)       = splitmix64(seed ^ k) with the top bit clear
//   written(k, s)   = top bit | k << 24 | (s mod 2^24)
//
// A read of key k is correct iff it returns loaded(k) or some written(k, .).
// Multi-key commits write both keys of a reserved pair with the same s, so a
// snapshot sees the commit all or nothing iff both keys carry equal s (or
// both are still loaded).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/workload/ycsb.h"

namespace e2e {

using u64 = std::uint64_t;

enum class Kind : std::uint8_t { kGet, kSnapshot, kSubmit, kSync, kMulti };

// One pre-generated operation. `key` is the key for reads and single-key
// writes, and the index into the thread's pair list for kMulti.
struct Op {
  std::uint32_t key;
  Kind kind;
};

// A periodic op mix: op i has kind `at[j].second` when i % period equals
// `at[j].first`, and `dflt` otherwise.
struct Mix {
  std::uint32_t period;
  Kind dflt;
  std::vector<std::pair<std::uint32_t, Kind>> at;

  Kind kind_at(u64 i) const {
    const auto r = static_cast<std::uint32_t>(i % period);
    for (const auto& [pos, k] : at) {
      if (pos == r) return k;
    }
    return dflt;
  }
};

struct ThreadSpec {
  const char* role;
  bool open_loop;
  // Ops per second: an open-loop thread's schedule; for a closed-loop
  // thread, a pacing floor between op starts (0 = back to back).
  double rate;
  Mix mix;
};

struct WorkloadSpec {
  const char* name;
  u64 keys;
  double theta;  // Zipf skew of every key draw; 0 = uniform
  int shards;
  std::vector<ThreadSpec> threads;
};

// Keys at the top of the key space reserved for multi-key pairs; no
// single-key write stream draws them, so each pair is written only by its
// thread's multi_upsert_sync calls.
inline constexpr u64 kPairBlock = 256;
inline constexpr u64 kMaxPairThreads = 4;
inline constexpr u64 kReservedKeys = kPairBlock * kMaxPairThreads;
inline constexpr std::size_t kPairsPerThread = 32;

// Op-stream lengths: closed-loop threads cycle through kClosedOps ops;
// open-loop threads get enough for their rate over the longest run.
inline constexpr std::size_t kClosedOps = std::size_t{1} << 20;
inline constexpr double kMaxScheduleSeconds = 64.0;

// The three workloads (README.md says why each exists). Mix periods set
// the probe rates: a read-mostly writer op in 256 is an upsert_sync probe;
// write-stream producers park on a sync or multi-key probe every 4096
// submits, which also sets its batch size; sync-sharded issues one of each
// read kind and one multi-key commit per 16 ops.
inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = {
      {"read-mostly",
       u64{1} << 22,
       0.99,
       1,
       {{"reader", false, 0, {1024, Kind::kGet, {{1023, Kind::kSnapshot}}}},
        {"reader", false, 0, {1024, Kind::kGet, {{1023, Kind::kSnapshot}}}},
        {"writer", true, 50000, {256, Kind::kSubmit, {{255, Kind::kSync}}}}}},
      {"write-stream",
       u64{1} << 17,
       0.0,
       1,
       {{"producer", false, 0,
         {8192, Kind::kSubmit,
          {{4095, Kind::kSync}, {8191, Kind::kMulti}}}},
        {"producer", false, 0,
         {8192, Kind::kSubmit,
          {{4095, Kind::kSync}, {8191, Kind::kMulti}}}},
        {"probe", false, 2000, {16, Kind::kGet, {{15, Kind::kSnapshot}}}}}},
      {"sync-sharded",
       u64{1} << 20,
       0.0,
       2,
       {{"producer", true, 5000,
         {16, Kind::kSync,
          {{3, Kind::kGet}, {7, Kind::kSnapshot}, {15, Kind::kMulti}}}},
        {"producer", true, 5000,
         {16, Kind::kSync,
          {{3, Kind::kGet}, {7, Kind::kSnapshot}, {15, Kind::kMulti}}}}}},
  };
  return w;
}

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline constexpr u64 kWrittenBit = u64{1} << 63;
inline constexpr u64 kSeqMask = (u64{1} << 24) - 1;
inline constexpr u64 kKeyMask = (u64{1} << 39) - 1;

inline u64 loaded_value(u64 seed, u64 k) {
  return mvcc::splitmix64_mix(seed ^ (k * 0x9e3779b97f4a7c15ULL)) &
         ~kWrittenBit;
}

inline u64 written_value(u64 k, u64 seq) {
  return kWrittenBit | (k << 24) | (seq & kSeqMask);
}

inline bool valid_value(u64 seed, u64 k, u64 v) {
  if ((v & kWrittenBit) != 0) return ((v >> 24) & kKeyMask) == k;
  return v == loaded_value(seed, k);
}

inline u64 seq_of(u64 v) { return v & kSeqMask; }

// One thread's inputs: its op stream, the partition its single-key writes
// stay inside, and the reserved key pairs its multi-key commits write.
struct ThreadPlan {
  ThreadSpec spec;
  int slot = 0;  // producer / VM slot index in the map
  std::vector<Op> ops;
  std::vector<std::pair<u64, u64>> pairs;
};

struct Plan {
  const WorkloadSpec* spec = nullptr;
  u64 seed = 0;
  std::vector<ThreadPlan> threads;

  // All keys [0, keys) are loaded; [keys - kReservedKeys, keys) hold pairs.
  u64 main_keys() const { return spec->keys - kReservedKeys; }
};

inline u64 stream_seed(u64 seed, u64 thread, u64 purpose) {
  return mvcc::splitmix64_mix(seed ^ mvcc::splitmix64_mix(thread * 4 + purpose));
}

// Shard of key k in an n-way map; must agree with ShardedMap::shard_index,
// which the benchmark checks at start-up.
inline std::size_t shard_of(u64 k, int n) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(mvcc::splitmix64_mix(k)) *
       static_cast<unsigned>(n)) >>
      64);
}

// Pairs for thread t from its reserved block: with several shards the two
// keys of a pair live in different shards, so every multi-key commit is a
// cross-shard commit.
inline std::vector<std::pair<u64, u64>> make_pairs(const WorkloadSpec& w,
                                                   u64 t) {
  const u64 begin = w.keys - kReservedKeys + t * kPairBlock;
  std::vector<std::pair<u64, u64>> pairs;
  if (w.shards <= 1) {
    for (u64 j = 0; j < kPairsPerThread; ++j) {
      pairs.emplace_back(begin + 2 * j, begin + 2 * j + 1);
    }
    return pairs;
  }
  std::vector<u64> by_shard[2];
  for (u64 k = begin; k < begin + kPairBlock; ++k) {
    const std::size_t s = shard_of(k, w.shards);
    if (s < 2) by_shard[s].push_back(k);
  }
  for (std::size_t j = 0; j < kPairsPerThread && j < by_shard[0].size() &&
                          j < by_shard[1].size();
       ++j) {
    pairs.emplace_back(by_shard[0][j], by_shard[1][j]);
  }
  return pairs;
}

inline std::size_t stream_length(const ThreadSpec& t) {
  if (!t.open_loop && t.rate == 0) return kClosedOps;
  return static_cast<std::size_t>(t.rate * kMaxScheduleSeconds) + 1;
}

inline bool has_kind(const Mix& m, Kind k) {
  if (m.dflt == k) return true;
  for (const auto& [pos, kind] : m.at) {
    if (kind == k) return true;
  }
  return false;
}

inline bool writes_keys(const Mix& m) {
  return has_kind(m, Kind::kSubmit) || has_kind(m, Kind::kSync);
}

// Generates every thread's inputs for workload w at `seed`. Reads draw
// from the whole key space; single-key writes draw from the thread's own
// partition of [0, main_keys()) (PartitionedYcsb), so the last value
// written to each key is known to exactly one thread.
inline Plan make_plan(const WorkloadSpec& w, u64 seed) {
  Plan plan;
  plan.spec = &w;
  plan.seed = seed;
  int writers = 0;
  for (const auto& t : w.threads) writers += writes_keys(t.mix) ? 1 : 0;
  const mvcc::workload::YcsbSpec read_spec{"read", 1.0};
  const mvcc::workload::YcsbSpec write_spec{"write", 0.0};
  const mvcc::workload::PartitionedYcsb reads(read_spec, w.keys, 1, w.theta);
  const mvcc::workload::PartitionedYcsb writes(
      write_spec, plan.main_keys(), writers > 0 ? writers : 1, w.theta);
  int writer = 0;
  for (std::size_t ti = 0; ti < w.threads.size(); ++ti) {
    const ThreadSpec& ts = w.threads[ti];
    ThreadPlan tp;
    tp.spec = ts;
    tp.slot = static_cast<int>(ti);
    if (has_kind(ts.mix, Kind::kMulti)) tp.pairs = make_pairs(w, ti);
    const std::size_t n = stream_length(ts);
    std::size_t nread = 0, nwrite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Kind k = ts.mix.kind_at(i);
      if (k == Kind::kGet || k == Kind::kSnapshot) ++nread;
      if (k == Kind::kSubmit || k == Kind::kSync) ++nwrite;
    }
    const auto rkeys = reads.stream(0, nread, stream_seed(seed, ti, 0));
    const auto wkeys =
        nwrite > 0 ? writes.stream(writer, nwrite, stream_seed(seed, ti, 1))
                   : std::vector<mvcc::workload::YcsbOp>{};
    if (nwrite > 0) ++writer;
    mvcc::Xoshiro256 pick(stream_seed(seed, ti, 2));
    std::size_t ri = 0, wi = 0;
    tp.ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Kind k = ts.mix.kind_at(i);
      u64 key = 0;
      switch (k) {
        case Kind::kGet:
        case Kind::kSnapshot:
          key = rkeys[ri++].key;
          break;
        case Kind::kSubmit:
        case Kind::kSync:
          key = wkeys[wi++].key;
          break;
        case Kind::kMulti:
          key = pick.next_below(tp.pairs.size());
          break;
      }
      tp.ops.push_back({static_cast<std::uint32_t>(key), k});
    }
    plan.threads.push_back(std::move(tp));
  }
  return plan;
}

// The loaded dataset: every key of [0, keys) with its loaded value.
inline std::vector<std::pair<u64, u64>> make_dataset(const WorkloadSpec& w,
                                                     u64 seed) {
  std::vector<std::pair<u64, u64>> out;
  out.reserve(w.keys);
  for (u64 k = 0; k < w.keys; ++k) out.emplace_back(k, loaded_value(seed, k));
  return out;
}

// Order-sensitive digest of a plan's op streams and pairs, for the
// seed-reproducibility test.
inline u64 fingerprint(const Plan& p) {
  u64 h = 0x6a09e667f3bcc909ULL;
  auto mix = [&h](u64 x) { h = mvcc::splitmix64_mix(h ^ x); };
  for (const auto& t : p.threads) {
    mix(t.ops.size());
    for (const Op& op : t.ops) {
      mix((u64{op.key} << 8) | static_cast<u64>(op.kind));
    }
    for (const auto& [a, b] : t.pairs) mix(a * 0x100000001ULL ^ b);
  }
  return h;
}

}  // namespace e2e

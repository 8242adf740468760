// YCSB workload generation for the Figure 7 experiment: Zipfian key draws
// over a loaded key space and the standard read/update mixes (A: 50/50,
// B: 95/5, C: 100/0).
//
// The Zipfian sampler is the YCSB/Gray et al. closed form: a ZipfGenerator
// precomputes the harmonic normalizers for a key-space size and skew theta
// (O(n) once, at construction), after which `sample` is O(1) and safe to
// share across threads — each thread draws through its own Xoshiro256, so
// streams are deterministic per seed. YcsbStream scrambles the Zipfian rank
// (YCSB's "scrambled zipfian") so the hot keys are spread across the key
// space instead of clustered at one end of the tree.
//
// Sizes are chosen by the caller, typically `config().scaled(base)` (see
// common/env.h), so the same binary runs at laptop and paper scale.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"

namespace mvcc::workload {

// One YCSB mix: the read fraction; the remainder are point updates.
struct YcsbSpec {
  std::string_view name;
  double read_fraction;
};

inline constexpr YcsbSpec kYcsbA{"A", 0.50};
inline constexpr YcsbSpec kYcsbB{"B", 0.95};
inline constexpr YcsbSpec kYcsbC{"C", 1.00};

struct YcsbOp {
  enum Type { kRead, kUpdate };
  Type type;
  std::uint64_t key;
};

// Zipfian ranks over [0, n) with skew `theta` (YCSB default 0.99). The
// normalizers depend only on (n, theta), so one generator serves every
// thread; sampling mutates nothing.
class ZipfGenerator {
 public:
  explicit ZipfGenerator(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    assert(n >= 1);
    double zetan = 0, zeta2 = 0;
    for (std::uint64_t i = 1; i <= n_; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
      if (i == 2) zeta2 = zetan;
    }
    zetan_ = zetan;
    zeta2_ = n_ >= 2 ? zeta2 : zetan;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t universe() const { return n_; }

  // O(1) draw of a rank in [0, n); rank 0 is the hottest.
  std::uint64_t sample(Xoshiro256& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < n_ ? rank : n_ - 1;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

// Per-thread deterministic op stream: Zipfian key (rank-scrambled into the
// key space) plus a read/update coin weighted by the spec.
class YcsbStream {
 public:
  YcsbStream(const YcsbSpec& spec, const ZipfGenerator& zipf,
             std::uint64_t seed)
      : spec_(spec), zipf_(&zipf), rng_(seed) {}

  YcsbOp next() {
    const std::uint64_t rank = zipf_->sample(rng_);
    const std::uint64_t key = scramble(rank) % zipf_->universe();
    const YcsbOp::Type type = rng_.next_double() < spec_.read_fraction
                                  ? YcsbOp::kRead
                                  : YcsbOp::kUpdate;
    return {type, key};
  }

 private:
  // Fixed, seed-independent mix so every stream agrees on where rank r
  // lands in the key space.
  static std::uint64_t scramble(std::uint64_t x) {
    return splitmix64_mix(x + 0x9e3779b97f4a7c15ULL);
  }

  YcsbSpec spec_;
  const ZipfGenerator* zipf_;
  Xoshiro256 rng_;
};

// Partitioned op streams — the ScaleStore YCSB_partitioned harness shape.
// The key space [0, keys) is cut into `producers` contiguous equal
// partitions and each producer's stream is PRE-MATERIALIZED over its own
// partition: Zipfian within the partition (every producer sees the same
// local skew) with the rank scrambled inside the partition, so hot keys
// spread across it but never leave it. Cross-producer key conflicts are
// zero by construction and the measured loop pays no generation cost —
// the two properties a multi-writer scale-out bench needs so the driver
// itself cannot become the bottleneck being measured.
//
// Partitions are psize = keys / producers wide; a remainder tail of fewer
// than `producers` keys is loaded but never drawn, keeping one shared
// ZipfGenerator (its normalizers depend on the partition size) exact for
// every producer.
class PartitionedYcsb {
 public:
  PartitionedYcsb(const YcsbSpec& spec, std::uint64_t keys, int producers,
                  double theta = 0.99)
      : spec_(spec),
        keys_(keys),
        producers_(producers),
        psize_(keys / static_cast<std::uint64_t>(producers) > 0
                   ? keys / static_cast<std::uint64_t>(producers)
                   : 1),
        zipf_(psize_, theta) {
    assert(producers >= 1);
    assert(keys >= static_cast<std::uint64_t>(producers));
  }

  std::uint64_t partition_begin(int p) const {
    return static_cast<std::uint64_t>(p) * psize_;
  }
  std::uint64_t partition_end(int p) const {
    return partition_begin(p) + psize_;
  }
  std::uint64_t partition_size() const { return psize_; }

  // Producer p's pre-generated stream of n ops, deterministic per
  // (p, seed): Zipfian rank drawn and scrambled within p's partition, plus
  // the spec's read/update coin.
  std::vector<YcsbOp> stream(int p, std::size_t n,
                             std::uint64_t seed = 0x51cbULL) const {
    assert(p >= 0 && p < producers_);
    std::vector<YcsbOp> out;
    out.reserve(n);
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(p) * 0x9e3779b9ULL);
    const std::uint64_t begin = partition_begin(p);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t rank = zipf_.sample(rng);
      const std::uint64_t key =
          begin + splitmix64_mix(rank + 0x9e3779b97f4a7c15ULL) % psize_;
      const YcsbOp::Type type = rng.next_double() < spec_.read_fraction
                                    ? YcsbOp::kRead
                                    : YcsbOp::kUpdate;
      out.push_back({type, key});
    }
    return out;
  }

 private:
  YcsbSpec spec_;
  std::uint64_t keys_;
  int producers_;
  std::uint64_t psize_;
  ZipfGenerator zipf_;
};

// The load phase: every key in [0, keys) with a deterministic random value,
// ready for FMap::from_entries or a loop of upserts into a baseline.
inline std::vector<std::pair<std::uint64_t, std::uint64_t>> ycsb_dataset(
    std::uint64_t keys, std::uint64_t seed = 0x9c5bULL) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(keys);
  Xoshiro256 rng(seed);
  for (std::uint64_t k = 0; k < keys; ++k) out.emplace_back(k, rng());
  return out;
}

}  // namespace mvcc::workload

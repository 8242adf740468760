// Environment-variable knobs shared by every experiment binary.
//
// The paper's harnesses are parameterised by machine scale; rather than a
// flag library we use a tiny set of env knobs so the same binary runs on a
// laptop (defaults) and on the paper's 72-core machine (MVCC_* overrides):
//
//   MVCC_SCALE    multiplier applied to structure sizes        (default 1.0)
//   MVCC_SECONDS  wall-clock budget per measured cell, seconds (default 0.4)
//   MVCC_READERS  reader-thread count for the Table 2 harness  (default 3)
//   MVCC_THREADS  worker-thread count for batch/bulk ops       (default hw)
//   MVCC_WARMUP_SECONDS  steady-state warm-up before each measured
//                 duration-based bench cell                    (default 0.1)
//   MVCC_STATS    1 enables the obs/ metrics layer (see obs/obs.h);
//                 unset/0 keeps instrumentation disabled       (default 0)
//   MVCC_SAMPLE_MS  footprint sampler period, ms; 0 disables the sampler
//                 thread entirely (see obs/sampler.h)          (default 0)
//   MVCC_SAMPLE_OUT path the benches write the footprint CSV to
//                 when the sampler ran             (default footprint.csv)
//   MVCC_TRACE    output path for the Chrome-trace event dump; unset
//                 disables tracing (see obs/trace.h)        (default off)
//   MVCC_PERF     1 opens perf_event hardware counters per bench cell
//                 (see obs/perf.h; silent no-op where the syscall is
//                 unavailable)                                 (default 0)
//   MVCC_SHARDS   bench_fig7/bench_batching: run only this shard count
//                 instead of sweeping 1/2/4           (default: sweep)
//
// Library code reads only MVCC_SCALE and MVCC_THREADS (through config()).
// Execution policies are compile-time constants: the fork-join grain
// (ftree/ops.h kBulkGrain), the slab size (alloc/pool.h kSlabBytes)
// and the reclaim lane, which txn/batching.h picks from the committed
// batch size (kDeferMinBatch). A txn::ShardedMap's shard count is its
// constructor argument.
#pragma once

#include <cstdlib>
#include <string>
#include <thread>

namespace mvcc {

// Reads a long from the environment; returns `def` when unset or malformed.
inline long env_long(const char* name, long def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a double from the environment; returns `def` when unset or malformed.
inline double env_double(const char* name, double def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a string from the environment; returns `def` when unset.
inline std::string env_string(const char* name, const char* def = "") {
  const char* s = std::getenv(name);
  return std::string(s != nullptr ? s : def);
}

namespace detail {

inline double parse_scale() { return env_double("MVCC_SCALE", 1.0); }

inline int parse_threads() {
  const long hw = static_cast<long>(std::thread::hardware_concurrency());
  const long v = env_long("MVCC_THREADS", hw > 0 ? hw : 1);
  return static_cast<int>(v > 0 ? v : 1);
}

}  // namespace detail

// --- Consolidated runtime configuration ------------------------------------
//
// The process-wide knobs in one struct, seeded from the environment on
// first use of config() and test-overridable: either mutate config() fields
// directly, or setenv + reload_config(). Library code reads config() (one
// cached struct, no getenv on hot paths).
struct Config {
  double scale = 1.0;  // MVCC_SCALE
  int threads = 1;     // MVCC_THREADS (floored at 1)

  // Scales a base structure size by `scale`; never returns less than 1 for
  // a positive base, so the result is always a usable element count.
  long scaled(long base) const {
    const long v = static_cast<long>(static_cast<double>(base) * scale);
    return (base > 0 && v < 1) ? 1 : v;
  }

  static Config from_env() {
    Config c;
    c.scale = detail::parse_scale();
    c.threads = detail::parse_threads();
    return c;
  }
};

// The process-wide configuration, seeded from the environment on first
// call. Set overriding env vars before the first library use (or call
// reload_config()).
inline Config& config() {
  static Config c = Config::from_env();
  return c;
}

// Re-seeds config() from the current environment (for tests that setenv).
inline void reload_config() { config() = Config::from_env(); }

}  // namespace mvcc

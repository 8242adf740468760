// Measurement helpers of the end-to-end benchmark: a monotonic clock,
// open-loop sleeping, percentile reporting, process CPU and resident
// memory, and the in-memory span log of the traced run.
#pragma once

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Sleeps until the absolute monotonic time t (no-op if already past).
inline void sleep_until_ns(std::uint64_t t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(t % 1000000000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// Open-loop generators sleep to microsecond-spaced due times; the default
// 50 us timer slack would make every wake-up late by about that much.
inline void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// Process CPU seconds (user + system, all threads).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Current resident set size in bytes.
inline double rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
// the part the hypervisor ran other guests on this machine's vCPUs.
struct HostCpu {
  unsigned long long total = 0;
  unsigned long long steal = 0;

  static HostCpu read() {
    HostCpu h;
    FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return h;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    if (n != 8) return h;
    for (unsigned long long x : v) h.total += x;
    h.steal = v[7];
    return h;
  }
};

// A latency report: the median plus the highest percentile (capped at
// p99) with at least ten samples beyond it, over n samples.
struct Tail {
  std::size_t n = 0;
  double p50 = 0;
  double q = 0;  // the tail quantile reported, e.g. 0.99
  double tail = 0;
};

inline double quantile_sorted(const std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return static_cast<double>(v[i]);
}

inline Tail tail_of(std::vector<std::uint64_t> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = quantile_sorted(v, 0.5);
  const double n = static_cast<double>(v.size());
  t.q = std::min(0.99, std::floor((1.0 - 10.0 / n) * 1000.0) / 1000.0);
  if (t.q <= 0.5) t.q = 0.5;
  t.tail = quantile_sorted(v, t.q);
  return t;
}

// Span names, grouped by the repo module (layer) whose public function the
// span times. Live spans time the front-end calls; replay spans time the
// commit and read stages driven directly through each layer.
enum SpanName : std::uint16_t {
  kLiveGet,
  kLiveSnapshot,
  kLiveSubmit,
  kLiveSync,
  kLiveMulti,
  kReplayCommit,
  kStageDrain,
  kStageAcquire,
  kStagePrepare,
  kStageInsert,
  kStageCreate,
  kStageSet,
  kStageCollect,
  kStageRelease,
  kReplayRead,
  kReadAcquire,
  kReadFind,
  kReadRelease,
  kSpanNames
};

inline const char* span_name(std::uint16_t n) {
  static const char* const names[kSpanNames] = {
      "txn.get",         "txn.snapshot",     "txn.submit",
      "txn.upsert_sync", "txn.multi_upsert_sync",
      "replay.commit",   "txn.drain",        "vm.acquire",
      "ftree.prepare_batch", "ftree.multi_insert", "alloc.create",
      "vm.set",          "ftree.collect",    "vm.release",
      "replay.read",     "vm.acquire_x256",  "ftree.find_x256",
      "vm.release_x256"};
  return n < kSpanNames ? names[n] : "?";
}

// The layer a span is charged to: the name up to its first '.'.
inline std::string layer_of(std::uint16_t n) {
  const std::string s = span_name(n);
  return s.substr(0, s.find('.'));
}

struct Span {
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t req;     // one id per request (live op or replayed batch)
  std::uint32_t parent;  // index+1 of the parent span in the same log; 0 = root
  std::uint16_t name;
  std::uint16_t thread;
};

// Per-thread span log: preallocated, appended without locks, written out
// after the run. Spans beyond the capacity are counted, not stored.
class SpanLog {
 public:
  void reset(std::size_t cap, std::uint16_t thread) {
    spans_.clear();
    spans_.reserve(cap);
    cap_ = cap;
    thread_ = thread;
    dropped_ = 0;
  }

  // Records a finished span; returns its index+1 (0 if dropped), usable
  // as a parent id.
  std::uint32_t add(std::uint16_t name, std::uint64_t t0, std::uint64_t t1,
                    std::uint64_t req, std::uint32_t parent = 0) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({t0, t1, req, parent, name, thread_});
    return static_cast<std::uint32_t>(spans_.size());
  }

  // Reserves a parent slot before its children are known; close() sets
  // its end once the parent ends.
  std::uint32_t open(std::uint16_t name, std::uint64_t t0, std::uint64_t req) {
    return add(name, t0, t0, req);
  }

  void close(std::uint32_t id, std::uint64_t t1) {
    if (id != 0) spans_[id - 1].t1 = t1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::size_t cap_ = 0;
  std::uint16_t thread_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace e2e

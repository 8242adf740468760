// The single reclamation seam for exact freed sets.
//
// Every VM client hands reclaim_payloads (1) the freed set a VM operation
// returned, (2) a DISPOSE policy — operator delete or return-to-pool — and
// (3) a LANE — free it here (the default) or on the exec/ pool's
// background defer lane. The lane is the caller's execution policy:
// txn/batching.h defers the freed sets of large commits, so the commit
// never stalls on a big retirement's destructor cost, and frees
// everything else inline.
//
// Precision is untouched by the lane: the VM's claim protocol hands each
// payload back exactly once, and only WHERE its destructor runs changes.
// The background lane's contract: reclaim_queue_depth() counts payloads
// published-but-unfreed (the sampler's reclaim/queue_depth column), every
// deferred batch runs under a `reclaim/batch_free` trace span, and
// reclaim_quiesce() blocks until the lane is drained.
//
// Registry handles (under obs::enabled()):
//   reclaim/deferred         payloads routed to the background lane
//   reclaim/queue_depth_hwm  max payloads simultaneously awaiting a worker
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/exec/pool.h"
#include "mvcc/obs/obs.h"

namespace mvcc::alloc {

// Where a freed set's destructors run: on the calling thread, or on the
// exec/ pool's lower-priority defer lane (off the commit path).
enum class ReclaimLane { kInline, kBackground };

// How a dead payload is disposed of once its lane runs it.
struct DeleteDispose {
  template <class T>
  void operator()(T* p) const {
    delete p;
  }
};

struct PoolDispose {
  template <class T>
  void operator()(T* p) const {
    destroy(p);
  }
};

// Payloads published to the background lane and not yet freed. Maintained
// unconditionally (two relaxed RMWs per deferred BATCH, off every hot
// path) so quiesce-style tests can watch it without obs on.
inline std::atomic<std::int64_t>& reclaim_queue_depth() {
  static std::atomic<std::int64_t> depth{0};
  return depth;
}

struct ReclaimStats {
  obs::Counter& deferred;
  obs::Gauge& queue_depth_hwm;

  static ReclaimStats& get() {
    static ReclaimStats s{obs::registry().counter("reclaim/deferred"),
                          obs::registry().gauge("reclaim/queue_depth_hwm")};
    return s;
  }
};

// Disposes of an exact freed set. Takes the vector by value so call sites
// pass a VM return directly: `reclaim_payloads(vm.release(p))`.
template <class T, class Dispose = DeleteDispose>
void reclaim_payloads(std::vector<T*> dead, Dispose dispose = {},
                      ReclaimLane lane = ReclaimLane::kInline) {
  if (dead.empty()) return;
  if (lane == ReclaimLane::kInline) {
    for (T* p : dead) dispose(p);
    return;
  }
  const auto n = static_cast<std::int64_t>(dead.size());
  const std::int64_t depth =
      reclaim_queue_depth().fetch_add(n, std::memory_order_relaxed) + n;
  if (obs::enabled()) {
    ReclaimStats::get().deferred.add(static_cast<std::uint64_t>(n));
    ReclaimStats::get().queue_depth_hwm.update_max(depth);
  }
  exec::Pool::instance().defer([batch = std::move(dead), dispose] {
    obs::TraceSpan span("reclaim/batch_free",
                        static_cast<std::uint64_t>(batch.size()));
    for (T* p : batch) dispose(p);
    reclaim_queue_depth().fetch_sub(static_cast<std::int64_t>(batch.size()),
                                    std::memory_order_relaxed);
  });
}

// Blocks until every batch ever routed to the background lane has been
// freed (helping drain from the calling thread). Whoever routes a batch
// there quiesces before it goes away: the txn/ engine's destructor does,
// so deferred reclamation never leaks at shutdown.
inline void reclaim_quiesce() { exec::Pool::instance().quiesce(); }

}  // namespace mvcc::alloc

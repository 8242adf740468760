// Segregated-size slab allocator with per-thread magazine caches — the
// allocation substrate behind every ftree node, PLM tuple, and version
// payload.
//
// Why precision makes pooling pay: the paper's GC hands back EXACT freed
// sets, so retired blocks can be recycled wholesale into thread-local
// caches instead of trickling through the global heap one free() at a
// time (the insight the space-bounded MVGC follow-ups build on). The
// design is Bonwick's magazine layer, in ONE process-wide pool
// (Pool::instance(), immortal; no other Pool can be built):
//
//   ThreadCache  one thread_local per thread, per size class two
//                magazines (`loaded` and `previous`, each holding up to
//                kMagazineSize free blocks). Allocation pops from
//                `loaded`; free pushes onto it; when one runs dry/full the
//                two swap, so a thread ping-ponging alloc/free near a
//                magazine boundary never touches shared state. Its
//                destructor parks both magazines in the depot at thread
//                exit, so a dead thread's free blocks stay allocatable.
//   Depot        per size class, global: two stacks of WHOLE magazines
//                (full of blocks / empty) under the class's mutex. A
//                cache miss exchanges magazines with the depot — one lock
//                acquisition moves kMagazineSize blocks, which is what
//                makes cross-thread free cheap: blocks freed on thread B
//                flow back to allocating thread A a magazine at a time.
//   Slabs        when the depot is dry too, the size class carves a fresh
//                magazine's worth of blocks out of a slab (kSlabBytes,
//                64 KiB) obtained from operator new. Slabs are never
//                returned: blocks recirculate, and the immortal pool's
//                magazines keep every slab reachable at exit.
//
// The depot is touched once per kMagazineSize blocks: the end-to-end runs
// count 145-484 transfers per thousand ops, under 100k per second, which a
// mutex handles with room to spare. The class mutex is also the
// happens-before edge that publishes a magazine's count/items to its next
// owner.
//
// Routing: the allocate()/deallocate() free functions send every block up
// to kMaxBlockBytes through the process-wide pool and fall back to plain
// operator new/delete only for larger blocks. Under AddressSanitizer every
// pooled block is poisoned while it sits free, so a use-after-free into
// the pool faults exactly like a heap use-after-free would, and freeing a
// block that is already poisoned aborts as a double free.
//
// Telemetry (obs/ registry, touched only under obs::enabled()):
//   alloc/slabs_live       slabs carved so far (never freed)
//   alloc/cache_hits       allocations served by a thread-local magazine
//   alloc/depot_transfers  whole-magazine moves between caches and depot
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "mvcc/obs/obs.h"

#if defined(__SANITIZE_ADDRESS__)
#define MVCC_ALLOC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVCC_ALLOC_ASAN 1
#endif
#endif

#ifdef MVCC_ALLOC_ASAN
#include <sanitizer/asan_interface.h>

#include <cstdio>
#include <cstdlib>
#define MVCC_ALLOC_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define MVCC_ALLOC_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define MVCC_ALLOC_POISON(p, n) ((void)0)
#define MVCC_ALLOC_UNPOISON(p, n) ((void)0)
#endif

namespace mvcc::alloc {

// Size classes are multiples of 16 bytes up to 256; every node/tuple/map
// payload in the system fits (Node<u64,u64> is 48 bytes). Larger requests
// take the operator-new fallback in the routing layer below.
inline constexpr std::size_t kQuantum = 16;
inline constexpr std::size_t kNumClasses = 16;
inline constexpr std::size_t kMaxBlockBytes = kQuantum * kNumClasses;
inline constexpr std::size_t kMagazineSize = 64;  // blocks per magazine
inline constexpr std::size_t kSlabBytes = std::size_t{1} << 16;

inline constexpr std::size_t size_class(std::size_t bytes) {
  return (bytes + kQuantum - 1) / kQuantum - 1;
}

inline constexpr std::size_t class_bytes(std::size_t ci) {
  return (ci + 1) * kQuantum;
}

// Registry handles, looked up once. Touched only under obs::enabled().
struct AllocStats {
  obs::Gauge& slabs_live;
  obs::Counter& cache_hits;
  obs::Counter& depot_transfers;

  static AllocStats& get() {
    static AllocStats s{obs::registry().gauge("alloc/slabs_live"),
                        obs::registry().counter("alloc/cache_hits"),
                        obs::registry().counter("alloc/depot_transfers")};
    return s;
  }
};

// Slabs the pool has carved so far (it never frees one), maintained
// unconditionally (one relaxed add per SLAB, nowhere near a hot path) so
// the footprint sampler can plot pooled memory growth without obs on.
inline std::atomic<std::int64_t> g_slabs_live{0};

// Registers the slab-count probe with the obs sampler. Idempotent; called
// by the bench glue before the sampler starts.
inline void register_alloc_probes() {
  obs::Sampler::instance().register_probe("alloc/slabs_live", [] {
    return g_slabs_live.load(std::memory_order_relaxed);
  });
}

namespace detail {

// A magazine: a fixed-capacity stack of free blocks of one size class,
// owned by exactly one thread cache or parked in its class's depot at any
// time.
struct Magazine {
  std::uint32_t count = 0;
  void* items[kMagazineSize];
};

// One thread's magazine pair for every size class. Each thread has exactly
// one (a thread_local in Pool::local_cache); its destructor parks the
// magazines in the depot when the thread exits.
struct ThreadCache {
  struct Slot {
    Magazine* loaded = nullptr;
    Magazine* previous = nullptr;
  };

  Slot cls[kNumClasses];

  ~ThreadCache();  // defined after Pool: flushes into the depot
};

}  // namespace detail

// The process-wide slab pool. There is exactly one, instance(): immortal
// (built with new, never destroyed), so worker threads and thread caches
// may outlive any static destruction order, and its slabs stay reachable
// for LeakSanitizer at exit instead of being freed.
class Pool {
 public:
  struct Stats {
    std::int64_t slabs = 0;
    std::int64_t depot_transfers = 0;
  };

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  static Pool& instance() {
    static Pool* p = new Pool();
    return *p;
  }

  void* allocate(std::size_t bytes) {
    assert(bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    detail::Magazine* m = slot.loaded;
    if (m != nullptr && m->count > 0) {
      if (obs::enabled()) AllocStats::get().cache_hits.add();
      void* p = m->items[--m->count];
      MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
      return p;
    }
    if (slot.previous != nullptr && slot.previous->count > 0) {
      std::swap(slot.loaded, slot.previous);
      if (obs::enabled()) AllocStats::get().cache_hits.add();
      void* p = slot.loaded->items[--slot.loaded->count];
      MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
      return p;
    }
    return allocate_slow(ci, slot);
  }

  void deallocate(void* p, std::size_t bytes) {
    assert(p != nullptr && bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    push_free(ci, slot, p);
  }

  // Frees a whole batch of same-class blocks (an exact freed set), paying
  // the cache lookup once; full magazines stream to the depot in O(1)
  // whole-magazine pushes.
  void deallocate_batch(void* const* blocks, std::size_t n,
                        std::size_t bytes) {
    if (n == 0) return;
    assert(bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    for (std::size_t i = 0; i < n; ++i) push_free(ci, slot, blocks[i]);
  }

  Stats stats() const {
    Stats s;
    s.slabs = g_slabs_live.load(std::memory_order_relaxed);
    s.depot_transfers = transfer_count_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend struct detail::ThreadCache;

  Pool() = default;

  // One size class's depot and slab carving, all guarded by `mu`. The
  // class owns every magazine it ever made; `full` and `empty` hold the
  // ones parked in the depot.
  struct SizeClass {
    std::mutex mu;
    std::vector<detail::Magazine*> full;
    std::vector<detail::Magazine*> empty;
    std::vector<std::unique_ptr<detail::Magazine>> owned;
    char* cur = nullptr;
    char* end = nullptr;
  };

  static detail::ThreadCache& local_cache() {
    thread_local detail::ThreadCache cache;
    return cache;
  }

  // An empty magazine from the depot, or a new one the class owns. Called
  // under sc.mu.
  static detail::Magazine* take_empty(SizeClass& sc) {
    if (sc.empty.empty()) {
      sc.owned.push_back(std::make_unique<detail::Magazine>());
      return sc.owned.back().get();
    }
    detail::Magazine* m = sc.empty.back();
    sc.empty.pop_back();
    return m;
  }

  void* allocate_slow(std::size_t ci, detail::ThreadCache::Slot& slot) {
    SizeClass& sc = classes_[ci];
    {
      std::lock_guard<std::mutex> lock(sc.mu);
      if (!sc.full.empty()) {
        // Exchange with the depot: retire the dry loaded magazine, take a
        // full one. One lock acquisition moves kMagazineSize blocks.
        if (slot.loaded != nullptr) sc.empty.push_back(slot.loaded);
        slot.loaded = sc.full.back();
        sc.full.pop_back();
        note_transfer();
      } else {
        // Depot dry: carve a magazine's worth of fresh blocks from the slab.
        if (slot.loaded == nullptr) slot.loaded = take_empty(sc);
        carve(ci, sc, *slot.loaded);
      }
    }
    void* p = slot.loaded->items[--slot.loaded->count];
    MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
    return p;
  }

  // Called under sc.mu.
  static void carve(std::size_t ci, SizeClass& sc, detail::Magazine& m) {
    const std::size_t bs = class_bytes(ci);
    while (m.count < kMagazineSize) {
      if (sc.cur == nullptr ||
          static_cast<std::size_t>(sc.end - sc.cur) < bs) {
        sc.cur = static_cast<char*>(::operator new(kSlabBytes));
        sc.end = sc.cur + kSlabBytes;
        const std::int64_t live =
            g_slabs_live.fetch_add(1, std::memory_order_relaxed) + 1;
        if (obs::enabled()) AllocStats::get().slabs_live.set(live);
      }
      m.items[m.count++] = sc.cur;
      MVCC_ALLOC_POISON(sc.cur, bs);
      sc.cur += bs;
    }
  }

  void push_free(std::size_t ci, detail::ThreadCache::Slot& slot, void* p) {
#ifdef MVCC_ALLOC_ASAN
    // A free block is poisoned; freeing it again would park it in two
    // magazines and hand it out twice.
    if (__asan_address_is_poisoned(p)) {
      std::fprintf(stderr, "mvcc::alloc: double free of pooled block %p\n", p);
      std::abort();
    }
#endif
    MVCC_ALLOC_POISON(p, class_bytes(ci));
    detail::Magazine* m = slot.loaded;
    if (m != nullptr && m->count < kMagazineSize) {
      m->items[m->count++] = p;
      return;
    }
    push_free_slow(ci, slot, p);
  }

  void push_free_slow(std::size_t ci, detail::ThreadCache::Slot& slot,
                      void* p) {
    if (slot.previous != nullptr && slot.previous->count < kMagazineSize) {
      std::swap(slot.loaded, slot.previous);
      slot.loaded->items[slot.loaded->count++] = p;
      return;
    }
    SizeClass& sc = classes_[ci];
    {
      // Both magazines full (or absent): hand the full `previous` to the
      // depot, shift `loaded` down, install an empty magazine on top.
      std::lock_guard<std::mutex> lock(sc.mu);
      if (slot.previous != nullptr) {
        sc.full.push_back(slot.previous);
        note_transfer();
      }
      slot.previous = slot.loaded;
      slot.loaded = take_empty(sc);
    }
    slot.loaded->items[slot.loaded->count++] = p;
  }

  // Thread exit: park the cache's magazines back in the depot so their
  // blocks stay allocatable.
  void flush_cache(detail::ThreadCache& cache) {
    for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
      SizeClass& sc = classes_[ci];
      std::lock_guard<std::mutex> lock(sc.mu);
      for (detail::Magazine* m :
           {cache.cls[ci].loaded, cache.cls[ci].previous}) {
        if (m == nullptr) continue;
        if (m->count > 0) {
          sc.full.push_back(m);
          note_transfer();
        } else {
          sc.empty.push_back(m);
        }
      }
      cache.cls[ci] = {};
    }
  }

  void note_transfer() {
    transfer_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) AllocStats::get().depot_transfers.add();
  }

  SizeClass classes_[kNumClasses];
  std::atomic<std::int64_t> transfer_count_{0};
};

inline detail::ThreadCache::~ThreadCache() {
  Pool::instance().flush_cache(*this);
}

// Whether a block of `bytes` fits a size class; larger ones take plain
// operator new/delete.
inline constexpr bool pooled_size(std::size_t bytes) {
  return bytes != 0 && bytes <= kMaxBlockBytes;
}

// --- Routing front: the allocation API the subsystems consume --------------

inline void* allocate(std::size_t bytes) {
  if (!pooled_size(bytes)) return ::operator new(bytes);
  return Pool::instance().allocate(bytes);
}

inline void deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  if (!pooled_size(bytes)) {
    ::operator delete(p);
    return;
  }
  Pool::instance().deallocate(p, bytes);
}

// Frees the raw storage of a batch of same-size blocks (destructors
// already run) — the O(1)-ish sink for exact freed sets.
inline void deallocate_batch(void* const* blocks, std::size_t n,
                             std::size_t bytes) {
  if (n == 0) return;
  if (!pooled_size(bytes)) {
    for (std::size_t i = 0; i < n; ++i) ::operator delete(blocks[i]);
    return;
  }
  Pool::instance().deallocate_batch(blocks, n, bytes);
}

// Typed construct/destroy through the routing front, the drop-in
// replacement for `new T(...)` / `delete p`.
template <class T, class... Args>
T* create(Args&&... args) {
  static_assert(alignof(T) <= kQuantum,
                "pool blocks are 16-byte aligned; over-aligned types must "
                "take the operator-new path");
  void* mem = allocate(sizeof(T));
  try {
    return ::new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    deallocate(mem, sizeof(T));
    throw;
  }
}

template <class T>
void destroy(T* p) {
  if (p == nullptr) return;
  p->~T();
  deallocate(p, sizeof(T));
}

}  // namespace mvcc::alloc

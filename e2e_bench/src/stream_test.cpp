// The benchmark's inputs are a function of the seed alone: for every
// workload, one seed reproduces identical op streams and dataset, and a
// different seed does not. Exits non-zero on the first violation.
#include <cstdio>

#include "streams.h"

namespace {

e2e::u64 dataset_digest(const e2e::WorkloadSpec& w, e2e::u64 seed) {
  e2e::u64 h = 0;
  for (const auto& [k, v] : e2e::make_dataset(w, seed)) {
    h = mvcc::splitmix64_mix(h ^ k ^ (v * 3));
  }
  return h;
}

}  // namespace

int main() {
  int failures = 0;
  for (const auto& w : e2e::workloads()) {
    const e2e::u64 a = e2e::fingerprint(e2e::make_plan(w, 7));
    const e2e::u64 b = e2e::fingerprint(e2e::make_plan(w, 7));
    const e2e::u64 c = e2e::fingerprint(e2e::make_plan(w, 8));
    const bool same_data = dataset_digest(w, 7) == dataset_digest(w, 7);
    const bool diff_data = dataset_digest(w, 7) != dataset_digest(w, 8);
    const bool ok = a == b && a != c && same_data && diff_data;
    std::printf("%-13s same seed %s, other seed %s: %s\n", w.name,
                a == b && same_data ? "identical" : "DIFFERENT",
                a != c && diff_data ? "different" : "IDENTICAL",
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// Synthetic Zipf corpus for the Table 3 inverted-index experiment.
//
// The paper indexes Wikipedia 2016 (8.13M documents, 1.6e9 (term, doc)
// pairs) and runs and-queries over term pairs while document batches are
// applied concurrently. Here the corpus is synthetic with the same shape:
// term frequencies follow a Zipf law (the empirical distribution of words
// in natural text), and query terms are drawn from the same distribution,
// so frequent terms have long posting lists AND are queried often — the
// contention pattern that makes Table 3 interesting.
//
// Everything is deterministic under CorpusConfig::seed (mvcc::Xoshiro256
// streams), and benches scale num_docs / vocabulary / query counts by
// config().scale so the same binary runs at laptop and paper scale. Zipf
// ranks are scrambled through splitmix64 (as in workload/ycsb.h) so the
// hot terms are spread across the term space instead of clustered at one
// end of the tree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/workload/ycsb.h"

namespace mvcc::invidx {

using Term = std::uint64_t;
using DocId = std::uint64_t;

// One document: a distinct, sorted set of terms.
struct Document {
  DocId id;
  std::vector<Term> terms;
};

// Shape of the synthetic corpus. terms_per_doc is the number of Zipf draws
// per document; the distinct-term count per document comes out a little
// lower because draws collide on the hot head of the distribution.
struct CorpusConfig {
  std::uint64_t num_docs = 4000;
  std::uint64_t vocabulary = 20000;
  std::uint64_t terms_per_doc = 64;
  double theta = 0.99;  // Zipf skew of term draws (YCSB default)
  std::uint64_t seed = 0x7ab1e3ULL;
};

namespace detail {

// Fixed, seed-independent rank scrambling so every stream (corpus and
// queries alike) agrees on which term a Zipf rank denotes.
inline Term term_of_rank(std::uint64_t rank, std::uint64_t vocabulary) {
  return splitmix64_mix(rank + 0x1e1df00dULL) % vocabulary;
}

}  // namespace detail

// Generates the corpus: num_docs documents with ids 0..num_docs-1, each
// holding the distinct terms of terms_per_doc scrambled-Zipf draws.
// Deterministic under cc.seed.
inline std::vector<Document> make_corpus(const CorpusConfig& cc) {
  const std::uint64_t vocab = std::max<std::uint64_t>(1, cc.vocabulary);
  const workload::ZipfGenerator zipf(vocab, cc.theta);
  Xoshiro256 rng(cc.seed);
  std::vector<Document> docs;
  docs.reserve(cc.num_docs);
  for (std::uint64_t d = 0; d < cc.num_docs; ++d) {
    Document doc;
    doc.id = d;
    doc.terms.reserve(cc.terms_per_doc);
    for (std::uint64_t i = 0; i < cc.terms_per_doc; ++i) {
      doc.terms.push_back(detail::term_of_rank(zipf.sample(rng), vocab));
    }
    std::sort(doc.terms.begin(), doc.terms.end());
    doc.terms.erase(std::unique(doc.terms.begin(), doc.terms.end()),
                    doc.terms.end());
    docs.push_back(std::move(doc));
  }
  return docs;
}

// Generates `n` and-query term pairs from the same scrambled-Zipf
// distribution as the corpus (frequent terms are queried more often), the
// two terms of a pair distinct whenever the vocabulary allows it.
// Deterministic under cc.seed, decorrelated from the corpus stream.
inline std::vector<std::pair<Term, Term>> make_query_terms(
    const CorpusConfig& cc, std::uint64_t n) {
  const std::uint64_t vocab = std::max<std::uint64_t>(1, cc.vocabulary);
  const workload::ZipfGenerator zipf(vocab, cc.theta);
  Xoshiro256 rng(cc.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::pair<Term, Term>> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Term a = detail::term_of_rank(zipf.sample(rng), vocab);
    Term b = a;
    for (int tries = 0; tries < 64 && b == a; ++tries) {
      b = detail::term_of_rank(zipf.sample(rng), vocab);
    }
    out.emplace_back(a, b);
  }
  return out;
}

}  // namespace mvcc::invidx

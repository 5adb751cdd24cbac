#include "runtime/plan_cache.hpp"

#include <gtest/gtest.h>

#include "runtime/signature.hpp"
#include "test_util.hpp"
#include "trace/metrics.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

MatrixSignature sig(index_t rows, std::int64_t salt) {
  MatrixSignature s;
  s.rows = rows;
  s.cols = rows;
  s.nnz = rows * 4;
  s.degree_digest = static_cast<std::uint64_t>(salt) * 0x9e3779b97f4a7c15ull;
  return s;
}

TEST(MatrixSignature, DeterministicAcrossCalls) {
  const CsrMatrix m = test::random_csr(300, 300, 0.03, 7);
  const MatrixSignature a = matrix_signature(m);
  const MatrixSignature b = matrix_signature(m);
  EXPECT_EQ(a, b);
  EXPECT_EQ(MatrixSignatureHash{}(a), MatrixSignatureHash{}(b));
  EXPECT_EQ(a.rows, 300);
  EXPECT_EQ(a.nnz, m.nnz());
}

// The digests key the plan cache, the tuner's report and every recorded
// workload, so their values are pinned, not only their determinism.
TEST(MatrixSignature, DigestValuesArePinned) {
  const MatrixSignature s =
      matrix_signature(test::random_csr(300, 300, 0.03, 7));
  EXPECT_EQ(s.degree_digest, 0x666146dfe9b554c2ull);
  EXPECT_EQ(static_cast<std::uint64_t>(MatrixSignatureHash{}(s)),
            0x30bf66d782ab5be9ull);
}

TEST(MatrixSignature, StableUnderCopy) {
  const CsrMatrix m = test::random_csr(120, 80, 0.05, 11);
  CsrMatrix copy = m;
  EXPECT_EQ(matrix_signature(m), matrix_signature(copy));
}

TEST(MatrixSignature, SensitiveToDegreeDistribution) {
  // Same rows/cols/nnz, different degree distribution: move one nonzero
  // from a dense row to a sparse one — the histogram digest must change.
  const std::vector<index_t> r1{0, 0, 0, 0, 1, 2, 3};
  const std::vector<index_t> r2{0, 0, 0, 1, 1, 2, 3};
  std::vector<index_t> c{0, 1, 2, 3, 0, 0, 0};
  std::vector<value_t> v(7, 1.0);
  const CsrMatrix a = csr_from_triplets(4, 4, r1, c, v);
  const CsrMatrix b = csr_from_triplets(4, 4, r2, c, v);
  const MatrixSignature sa = matrix_signature(a);
  const MatrixSignature sb = matrix_signature(b);
  EXPECT_EQ(sa.nnz, sb.nnz);
  EXPECT_NE(sa, sb);
}

TEST(MatrixSignature, EmptyAndTinyMatricesWork) {
  const CsrMatrix empty = csr_from_triplets(3, 3, std::vector<index_t>{},
                                            std::vector<index_t>{},
                                            std::vector<value_t>{});
  const MatrixSignature s = matrix_signature(empty);
  EXPECT_EQ(s.nnz, 0);
  const CsrMatrix one =
      csr_from_triplets(1, 1, std::vector<index_t>{0}, std::vector<index_t>{0},
                        std::vector<value_t>{2.0});
  EXPECT_NE(matrix_signature(one), s);
}

TEST(PlanCache, MissThenHit) {
  PlanCache cache(4);
  const PlanKey key{sig(100, 1), sig(100, 1)};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, {8, 16});
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->threshold_a, 8);
  EXPECT_EQ(hit->threshold_b, 16);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanCache, DistinguishesOperandOrder) {
  PlanCache cache(4);
  cache.insert({sig(100, 1), sig(200, 2)}, {8, 16});
  EXPECT_FALSE(cache.lookup({sig(200, 2), sig(100, 1)}).has_value());
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const PlanKey k1{sig(1, 1), sig(1, 1)};
  const PlanKey k2{sig(2, 2), sig(2, 2)};
  const PlanKey k3{sig(3, 3), sig(3, 3)};
  cache.insert(k1, {1, 1});
  cache.insert(k2, {2, 2});
  ASSERT_TRUE(cache.lookup(k1).has_value());  // k1 now most recent
  cache.insert(k3, {3, 3});                   // evicts k2 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.lookup(k2).has_value());
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(PlanCache, InsertOverwritesAndRefreshes) {
  PlanCache cache(2);
  const PlanKey k1{sig(1, 1), sig(1, 1)};
  const PlanKey k2{sig(2, 2), sig(2, 2)};
  cache.insert(k1, {1, 1});
  cache.insert(k2, {2, 2});
  cache.insert(k1, {9, 9});  // overwrite refreshes k1's recency
  cache.insert({sig(3, 3), sig(3, 3)}, {3, 3});
  ASSERT_TRUE(cache.lookup(k1).has_value());
  EXPECT_EQ(cache.lookup(k1)->threshold_a, 9);
  EXPECT_FALSE(cache.lookup(k2).has_value());  // k2 was the LRU victim
}

TEST(PlanCache, RejectsZeroCapacity) {
  EXPECT_THROW(PlanCache(0), CheckError);
}

TEST(PlanCache, OverwriteCountsAsOverwriteNotEviction) {
  MetricsRegistry metrics;
  PlanCache cache(2);
  cache.bind_metrics(&metrics);
  const PlanKey k1{sig(1, 1), sig(1, 1)};
  const PlanKey k2{sig(2, 2), sig(2, 2)};
  cache.insert(k1, {1, 1});
  cache.insert(k2, {2, 2});
  // The cache is full; overwriting an existing key must not evict anything
  // (no entry is lost) and must count as an overwrite.
  cache.insert(k1, {7, 7});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().overwrites, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(metrics.counter("plan_cache.overwrites").value(), 1);
  ASSERT_TRUE(cache.lookup(k1).has_value());
  EXPECT_EQ(cache.lookup(k1)->threshold_a, 7);
  EXPECT_TRUE(cache.lookup(k2).has_value());

  // The overwrite refreshed k1's recency: k2 is now the LRU victim when a
  // third key arrives, and that insert is an eviction, not an overwrite.
  cache.insert(k1, {8, 8});  // k1 most recent again
  cache.insert({sig(3, 3), sig(3, 3)}, {3, 3});
  EXPECT_EQ(cache.stats().overwrites, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());

  // A versioned, measured plan round-trips through the cache unchanged.
  CachedPlan promoted;
  promoted.threshold_a = 9;
  promoted.threshold_b = 9;
  promoted.version = 3;
  promoted.measured_s = 1.5e-3;
  cache.insert(k1, promoted);
  const auto got = cache.lookup(k1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 3u);
  EXPECT_DOUBLE_EQ(got->measured_s, 1.5e-3);
}

TEST(PlanCache, QuarantineDropsEntryAndCounts) {
  PlanCache cache(4);
  const PlanKey k1{sig(1, 1), sig(1, 1)};
  const PlanKey k2{sig(2, 2), sig(2, 2)};
  cache.insert(k1, {1, 1});
  cache.insert(k2, {2, 2});
  EXPECT_TRUE(cache.quarantine(k1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().quarantines, 1);
  EXPECT_FALSE(cache.lookup(k1).has_value());  // gone: forces re-identify
  EXPECT_TRUE(cache.lookup(k2).has_value());   // unrelated entry untouched
  // Quarantining an absent key is a no-op.
  EXPECT_FALSE(cache.quarantine(k1));
  EXPECT_EQ(cache.stats().quarantines, 1);
  // A re-insert after quarantine behaves like a fresh entry.
  cache.insert(k1, {5, 5});
  EXPECT_EQ(cache.lookup(k1)->threshold_a, 5);
}

TEST(PlanCache, QuarantineKeepsLruListConsistent) {
  PlanCache cache(2);
  const PlanKey k1{sig(1, 1), sig(1, 1)};
  const PlanKey k2{sig(2, 2), sig(2, 2)};
  const PlanKey k3{sig(3, 3), sig(3, 3)};
  cache.insert(k1, {1, 1});
  cache.insert(k2, {2, 2});
  cache.quarantine(k2);  // frees a slot
  cache.insert(k3, {3, 3});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);  // no eviction was needed
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
}

}  // namespace
}  // namespace hh

#include "ml/sparse_vector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "util/random.h"

namespace zombie {
namespace {

SparseVector V(std::vector<std::pair<uint32_t, double>> pairs) {
  return SparseVector::FromPairs(std::move(pairs));
}

TEST(SparseVectorTest, FromPairsSortsAndMerges) {
  SparseVector v = V({{5, 1.0}, {2, 2.0}, {5, 3.0}, {7, 0.0}});
  ASSERT_EQ(v.num_nonzero(), 2u);
  EXPECT_EQ(v.index_at(0), 2u);
  EXPECT_DOUBLE_EQ(v.value_at(0), 2.0);
  EXPECT_EQ(v.index_at(1), 5u);
  EXPECT_DOUBLE_EQ(v.value_at(1), 4.0);
}

TEST(SparseVectorTest, MergedToZeroIsDropped) {
  SparseVector v = V({{3, 1.0}, {3, -1.0}});
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.dimension(), 0u);
}

TEST(SparseVectorTest, PushBackStrictOrder) {
  SparseVector v;
  v.PushBack(1, 1.0);
  v.PushBack(4, 2.0);
  EXPECT_EQ(v.num_nonzero(), 2u);
  EXPECT_EQ(v.dimension(), 5u);
  EXPECT_DEATH(v.PushBack(4, 3.0), "strictly increasing");
}

TEST(SparseVectorTest, PushBackSkipsZeros) {
  SparseVector v;
  v.PushBack(1, 0.0);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, FromPairsSortedInputWithDuplicates) {
  // Already in index order (the built-in extractors' output): no sort, the
  // adjacent duplicates still merge and zeros still drop.
  SparseVector v = V({{1, 1.0}, {3, 2.0}, {3, 0.5}, {6, 0.0}, {9, -1.0}});
  ASSERT_EQ(v.num_nonzero(), 3u);
  EXPECT_EQ(v.index_at(1), 3u);
  EXPECT_DOUBLE_EQ(v.value_at(1), 2.5);
  EXPECT_EQ(v.index_at(2), 9u);
}

TEST(SparseVectorTest, AssignSortedCopiesValidColumns) {
  const uint32_t idx[] = {2, 5, 9};
  const double val[] = {1.5, -2.0, 0.25};
  SparseVector v;
  v.PushBack(0, 7.0);  // replaced, not appended to
  ASSERT_TRUE(v.AssignSorted(idx, val, 3));
  EXPECT_EQ(v, V({{2, 1.5}, {5, -2.0}, {9, 0.25}}));
  ASSERT_TRUE(v.AssignSorted(idx, val, 0));
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, AssignSortedRejectsUnorderedIndices) {
  const uint32_t dup[] = {2, 5, 5};
  const uint32_t down[] = {2, 9, 5};
  const double val[] = {1.0, 2.0, 3.0};
  SparseVector v;
  v.PushBack(0, 7.0);
  EXPECT_FALSE(v.AssignSorted(dup, val, 3));
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.AssignSorted(down, val, 3));
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, AssignSortedDropsZerosLikePushBack) {
  const uint32_t idx[] = {1, 4, 8};
  const double val[] = {1.0, 0.0, 3.0};
  SparseVector v;
  ASSERT_TRUE(v.AssignSorted(idx, val, 3));
  EXPECT_EQ(v, V({{1, 1.0}, {8, 3.0}}));
}

TEST(SparseVectorTest, GetBinarySearch) {
  SparseVector v = V({{10, 1.5}, {20, -2.5}});
  EXPECT_DOUBLE_EQ(v.Get(10), 1.5);
  EXPECT_DOUBLE_EQ(v.Get(20), -2.5);
  EXPECT_DOUBLE_EQ(v.Get(15), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(100), 0.0);
}

TEST(SparseVectorTest, DotWithDense) {
  SparseVector v = V({{0, 2.0}, {3, 1.0}});
  std::vector<double> dense = {1.0, 9.0, 9.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 2.0 + 4.0);
  // Indices past the dense size contribute zero.
  std::vector<double> short_dense = {5.0};
  EXPECT_DOUBLE_EQ(v.Dot(short_dense), 10.0);
  EXPECT_DOUBLE_EQ(v.Dot(std::vector<double>{}), 0.0);
}

TEST(SparseVectorTest, DotSparseSparse) {
  SparseVector a = V({{1, 2.0}, {3, 1.0}, {8, 4.0}});
  SparseVector b = V({{3, 5.0}, {8, 0.5}, {9, 100.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 5.0 + 2.0);
  EXPECT_DOUBLE_EQ(b.Dot(a), a.Dot(b));  // symmetry
  EXPECT_DOUBLE_EQ(a.Dot(SparseVector()), 0.0);
}

TEST(SparseVectorTest, ScaleAndNorms) {
  SparseVector v = V({{0, 3.0}, {1, 4.0}});
  EXPECT_DOUBLE_EQ(v.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.L1Norm(), 7.0);
  v.Scale(2.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 10.0);
}

TEST(SparseVectorTest, CosineSimilarity) {
  SparseVector a = V({{0, 1.0}});
  SparseVector b = V({{0, 5.0}});
  SparseVector c = V({{1, 1.0}});
  EXPECT_DOUBLE_EQ(a.CosineSimilarity(b), 1.0);
  EXPECT_DOUBLE_EQ(a.CosineSimilarity(c), 0.0);
  EXPECT_DOUBLE_EQ(a.CosineSimilarity(SparseVector()), 0.0);
}

// Regression: dimension() used to return uint32_t, so an entry at index
// UINT32_MAX wrapped it to 0 — and a caller sizing a dense vector from it
// would then write past its end.
TEST(SparseVectorTest, DimensionDoesNotWrapAtUint32Max) {
  SparseVector v;
  v.PushBack(std::numeric_limits<uint32_t>::max(), 1.0);
  EXPECT_EQ(v.dimension(), (1ULL << 32));
  EXPECT_EQ(SparseVector().dimension(), 0u);
}

TEST(SparseVectorTest, ToStringRendersPairs) {
  SparseVector v = V({{3, 1.0}, {17, 0.5}});
  EXPECT_EQ(v.ToString(), "{3:1, 17:0.5}");
  EXPECT_EQ(SparseVector().ToString(), "{}");
}

// Property-style randomized algebra checks.
class SparseVectorPropertyTest : public testing::TestWithParam<uint64_t> {};

SparseVector RandomVector(Rng* rng, uint32_t dim, size_t nnz) {
  std::vector<std::pair<uint32_t, double>> pairs;
  for (size_t i = 0; i < nnz; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng->NextBelow(dim)),
                       rng->NextGaussian());
  }
  return SparseVector::FromPairs(std::move(pairs));
}

TEST_P(SparseVectorPropertyTest, DotConsistentWithDense) {
  Rng rng(GetParam());
  SparseVector a = RandomVector(&rng, 100, 20);
  SparseVector b = RandomVector(&rng, 100, 20);
  std::vector<double> b_dense(100, 0.0);
  for (size_t i = 0; i < b.num_nonzero(); ++i) {
    b_dense[b.index_at(i)] = b.value_at(i);
  }
  EXPECT_NEAR(a.Dot(b), a.Dot(b_dense), 1e-9);
}

TEST_P(SparseVectorPropertyTest, CosineBounded) {
  Rng rng(GetParam() + 2000);
  SparseVector a = RandomVector(&rng, 30, 15);
  SparseVector b = RandomVector(&rng, 30, 15);
  double cs = a.CosineSimilarity(b);
  EXPECT_GE(cs, -1.0 - 1e-12);
  EXPECT_LE(cs, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVectorPropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- View semantics -------------------------------------------------------

TEST(SparseVectorViewTest, DefaultViewIsEmpty) {
  SparseVectorView v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.num_nonzero(), 0u);
  EXPECT_EQ(v.dimension(), 0u);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 0.0);
}

TEST(SparseVectorViewTest, ViewAliasesOwningStorage) {
  SparseVector owner = V({{2, 1.0}, {9, -3.0}});
  SparseVectorView view = owner.view();
  EXPECT_EQ(view.indices_data(), owner.indices().data());
  EXPECT_EQ(view.values_data(), owner.values().data());
  EXPECT_EQ(view.num_nonzero(), owner.num_nonzero());
  // Mutating the owner in place is visible through the view: no copy was
  // taken.
  owner.Scale(2.0);
  EXPECT_DOUBLE_EQ(view.value_at(0), 2.0);
  EXPECT_DOUBLE_EQ(view.value_at(1), -6.0);
}

TEST(SparseVectorViewTest, ImplicitConversionMatchesExplicitView) {
  SparseVector owner = V({{0, 1.0}, {5, 2.0}});
  auto takes_view = [](SparseVectorView v) { return v.L1Norm(); };
  EXPECT_DOUBLE_EQ(takes_view(owner), owner.view().L1Norm());
}

TEST(SparseVectorViewTest, KernelsAgreeWithOwningVector) {
  SparseVector a = V({{1, 1.5}, {4, -2.0}, {9, 0.5}});
  SparseVector b = V({{1, 2.0}, {6, 1.0}, {9, -1.0}});
  std::vector<double> dense = {0.5, 1.0, 1.5, 2.0, 2.5};
  // Bit-identical, not approximately equal: the view kernels ARE the
  // owning vector's kernels (the owner delegates), and A/B engine tests
  // depend on that.
  EXPECT_EQ(a.view().Dot(b.view()), a.Dot(b));
  EXPECT_EQ(a.view().Dot(dense), a.Dot(dense));
}

TEST(SparseVectorViewTest, FromViewRoundTrip) {
  SparseVector original = V({{3, 1.0}, {7, -2.5}, {100, 0.125}});
  SparseVector copy = SparseVector::FromView(original.view());
  EXPECT_EQ(copy, original);
  // The copy owns fresh storage, not the original's.
  EXPECT_NE(copy.indices().data(), original.indices().data());
}

// --- CSR Dataset equivalence ---------------------------------------------

Dataset ToDataset(const std::vector<SparseVector>& rows,
                  const std::vector<int32_t>& labels) {
  Dataset ds;
  for (size_t i = 0; i < rows.size(); ++i) ds.Add(rows[i], labels[i]);
  return ds;
}

TEST(DatasetCsrTest, RowsRoundTripExactly) {
  Rng rng(42);
  std::vector<SparseVector> rows;
  std::vector<int32_t> labels;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(RandomVector(&rng, 200, 1 + i % 7));
    labels.push_back(i % 2);
  }
  Dataset ds = ToDataset(rows, labels);
  ASSERT_EQ(ds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(ds.example(i).x == rows[i].view()) << "row " << i;
    EXPECT_EQ(ds.example(i).y, labels[i]);
  }
}

TEST(DatasetCsrTest, EmptyRowsAreRepresentable) {
  Dataset ds;
  ds.Add(SparseVector(), 1);
  ds.Add(V({{5, 2.0}}), 0);
  ds.Add(SparseVector(), 1);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_TRUE(ds.example(0).x.empty());
  EXPECT_EQ(ds.example(1).x.num_nonzero(), 1u);
  EXPECT_TRUE(ds.example(2).x.empty());
  // An empty row between populated ones must not shift its neighbors.
  EXPECT_DOUBLE_EQ(ds.example(1).x.Get(5), 2.0);
  EXPECT_EQ(ds.num_entries(), 1u);
}

TEST(DatasetCsrTest, Uint32MaxAdjacentIndicesSurviveStorage) {
  // Indices at the top of the uint32 range stress dimension() (which must
  // widen to size_t) and the CSR round trip equally.
  SparseVector high;
  high.PushBack(UINT32_MAX - 1, 1.0);
  high.PushBack(UINT32_MAX, 2.0);
  Dataset ds;
  ds.Add(high, 1);
  SparseVectorView row = ds.example(0).x;
  EXPECT_EQ(row.index_at(0), UINT32_MAX - 1);
  EXPECT_EQ(row.index_at(1), UINT32_MAX);
  EXPECT_EQ(row.dimension(), static_cast<size_t>(UINT32_MAX) + 1);
  EXPECT_DOUBLE_EQ(row.Get(UINT32_MAX), 2.0);
}

TEST(DatasetCsrTest, FromPairsDupSummingFeedsCsrUnchanged) {
  // FromPairs collapses duplicates before storage, so the CSR row carries
  // the summed entry — there is no second dedup inside Dataset to diverge.
  SparseVector v = V({{7, 1.0}, {7, 2.5}, {3, -1.0}, {3, 1.0}});
  Dataset ds;
  ds.Add(v, 0);
  SparseVectorView row = ds.example(0).x;
  ASSERT_EQ(row.num_nonzero(), 1u);  // {3} summed to zero and was dropped
  EXPECT_EQ(row.index_at(0), 7u);
  EXPECT_DOUBLE_EQ(row.value_at(0), 3.5);
}

TEST(DatasetCsrTest, LearnerWeightsIdenticalFromVectorsAndCsrRows) {
  // The equivalence that matters end-to-end: training on CSR row views
  // produces bit-identical weights to training on the owning vectors.
  Rng rng(7);
  std::vector<SparseVector> rows;
  std::vector<int32_t> labels;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(RandomVector(&rng, 64, 8));
    labels.push_back(static_cast<int32_t>(rng.NextBernoulli(0.5)));
  }
  Dataset ds = ToDataset(rows, labels);

  LogisticRegressionLearner from_vectors;
  LogisticRegressionLearner from_csr;
  for (size_t i = 0; i < rows.size(); ++i) {
    from_vectors.Update(rows[i], labels[i]);
    from_csr.Update(ds.example(i).x, ds.example(i).y);
  }
  EXPECT_EQ(from_vectors.bias(), from_csr.bias());
  for (uint32_t f = 0; f < 64; ++f) {
    EXPECT_EQ(from_vectors.WeightAt(f), from_csr.WeightAt(f)) << "w" << f;
  }
}

}  // namespace
}  // namespace zombie

#include "index/kmeans.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace zombie {
namespace {

// Three well-separated blobs in 2D.
std::vector<std::vector<double>> Blobs(size_t per_blob, Rng* rng) {
  std::vector<std::vector<double>> rows;
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      rows.push_back({centers[b][0] + rng->NextGaussian() * 0.3,
                      centers[b][1] + rng->NextGaussian() * 0.3});
    }
  }
  return rows;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Rng rng(1);
  auto rows = Blobs(50, &rng);
  KMeansConfig cfg;
  cfg.k = 3;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  ASSERT_EQ(r.assignments.size(), 150u);
  // Each blob must be a single pure cluster.
  for (int b = 0; b < 3; ++b) {
    uint32_t c = r.assignments[static_cast<size_t>(b) * 50];
    for (size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(r.assignments[static_cast<size_t>(b) * 50 + i], c);
    }
  }
  // Distinct clusters per blob.
  EXPECT_NE(r.assignments[0], r.assignments[50]);
  EXPECT_NE(r.assignments[50], r.assignments[100]);
  EXPECT_LT(r.inertia, 150 * 0.3 * 0.3 * 2 * 4);  // near within-blob noise
}

TEST(KMeansTest, DeterministicForSeed) {
  Rng rng(2);
  auto rows = Blobs(30, &rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.seed = 99;
  KMeansResult a = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  KMeansResult b = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, KGreaterOrEqualNGivesOnePointClusters) {
  std::vector<std::vector<double>> rows = {{0.0}, {1.0}, {2.0}};
  KMeansConfig cfg;
  cfg.k = 5;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  EXPECT_EQ(r.inertia, 0.0);
  EXPECT_EQ(r.assignments, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(r.centroids.num_rows(), 5u);
}

TEST(KMeansTest, KOneGroupsEverything) {
  Rng rng(3);
  auto rows = Blobs(10, &rng);
  KMeansConfig cfg;
  cfg.k = 1;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  for (uint32_t a : r.assignments) EXPECT_EQ(a, 0u);
}

TEST(KMeansTest, DuplicatePointsHandled) {
  std::vector<std::vector<double>> rows(20, std::vector<double>{1.0, 2.0});
  KMeansConfig cfg;
  cfg.k = 4;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  EXPECT_EQ(r.assignments.size(), 20u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, AssignmentsAlwaysWithinK) {
  Rng rng(4);
  auto rows = Blobs(20, &rng);
  KMeansConfig cfg;
  cfg.k = 7;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  for (uint32_t a : r.assignments) EXPECT_LT(a, 7u);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng rng(5);
  auto rows = Blobs(40, &rng);
  double prev = 1e300;
  for (size_t k : {1, 2, 3, 6}) {
    KMeansConfig cfg;
    cfg.k = k;
    double inertia = RunKMeans(DenseMatrix::FromRows(rows), cfg).inertia;
    EXPECT_LE(inertia, prev + 1e-9) << "k=" << k;
    prev = inertia;
  }
}

TEST(KMeansTest, IterationCountBounded) {
  Rng rng(6);
  auto rows = Blobs(30, &rng);
  KMeansConfig cfg;
  cfg.k = 3;
  cfg.max_iterations = 2;
  KMeansResult r = RunKMeans(DenseMatrix::FromRows(rows), cfg);
  EXPECT_LE(r.iterations, 2u);
}

TEST(SquaredL2Test, KnownValue) {
  EXPECT_DOUBLE_EQ(SquaredL2({1.0, 2.0}, {4.0, 6.0}), 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(SquaredL2({}, {}), 0.0);
}

TEST(NearestRowTest, MatchesScalarArgminWithLowerIdTies) {
  Rng rng(8);
  for (size_t dim : {1, 3, 16}) {
    for (size_t count = 1; count <= 19; ++count) {
      std::vector<std::vector<double>> centroids(count,
                                                 std::vector<double>(dim));
      for (auto& c : centroids) {
        for (double& v : c) v = static_cast<double>(rng.NextBelow(4));
      }
      const DenseMatrix m = DenseMatrix::FromRows(centroids);
      for (int probe = 0; probe < 20; ++probe) {
        std::vector<double> x(dim);
        for (double& v : x) v = static_cast<double>(rng.NextBelow(4));
        size_t want = 0;
        double want_d = SquaredL2(x, centroids[0]);
        for (size_t c = 1; c < count; ++c) {
          double d = SquaredL2(x, centroids[c]);
          if (d < want_d) {
            want_d = d;
            want = c;
          }
        }
        double got_d;
        EXPECT_EQ(NearestRow(m, x.data(), &got_d), want)
            << "dim=" << dim << " count=" << count;
        EXPECT_EQ(got_d, want_d);
      }
    }
  }
}

TEST(AssignToNearestTest, MatchesPerRowNearestAndSumsInRowOrder) {
  Rng rng(9);
  const size_t dim = 5;
  const size_t k = 11;
  std::vector<std::vector<double>> rows(37, std::vector<double>(dim));
  for (auto& r : rows) {
    for (double& v : r) v = rng.NextGaussian();
  }
  std::vector<std::vector<double>> centroids(rows.begin(), rows.begin() + k);
  std::vector<double> flat;
  for (const auto& c : centroids) flat.insert(flat.end(), c.begin(), c.end());
  const DenseMatrix m = DenseMatrix::FromRows(rows);
  const DenseMatrix cm = DenseMatrix::FromRows(centroids);
  std::vector<uint32_t> assignments(rows.size(), 0);
  const AssignStep step =
      AssignToNearest(simd::ActiveKernels().squared_l2_to_lanes, m,
                      flat.data(), k, &assignments);
  double inertia = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    double d;
    EXPECT_EQ(assignments[i], NearestRow(cm, rows[i].data(), &d));
    inertia += d;
  }
  EXPECT_EQ(step.inertia, inertia);
  EXPECT_TRUE(step.changed);
  EXPECT_FALSE(AssignToNearest(simd::ActiveKernels().squared_l2_to_lanes, m,
                               flat.data(), k, &assignments)
                   .changed);
}

TEST(DenseMatrixTest, RowsSurviveTileAndBlockBoundaries) {
  const size_t n = 2 * DenseMatrix::kBlockTiles * DenseMatrix::kTileRows + 5;
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<double>(i), -static_cast<double>(i), 0.5});
  }
  DenseMatrix m = DenseMatrix::FromRows(rows);
  EXPECT_EQ(m.num_rows(), n);
  EXPECT_EQ(m.dim(), 3u);
  EXPECT_EQ(m.num_tiles(), (n + 7) / 8);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(m.RowVector(i), rows[i]);
  // Lane-interleaved tiles, zero past the last row.
  const double* last = m.tile(m.num_tiles() - 1);
  EXPECT_EQ(last[0 * 8 + 4], static_cast<double>(n - 1));
  EXPECT_EQ(last[1 * 8 + 4], -static_cast<double>(n - 1));
  EXPECT_EQ(last[0 * 8 + 5], 0.0);

  DenseMatrix zeros(n, 3);
  EXPECT_EQ(zeros.num_rows(), n);
  zeros.mutable_at(n - 1, 2) = 7.0;
  EXPECT_EQ(zeros.RowVector(n - 1), (std::vector<double>{0.0, 0.0, 7.0}));
  EXPECT_EQ(zeros.RowVector(0), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(KMeansDeathTest, EmptyRowsAbort) {
  KMeansConfig cfg;
  EXPECT_DEATH(RunKMeans(DenseMatrix(), cfg), "at least one row");
}

TEST(KMeansDeathTest, RaggedRowsAbort) {
  // k-means reads a flat matrix, so ragged input is rejected where the
  // matrix is built.
  EXPECT_DEATH(DenseMatrix::FromRows({{1.0}, {1.0, 2.0}}), "ragged rows");
}

}  // namespace
}  // namespace zombie

#include "index/kmeans.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/random.h"

// Every dense distance below goes through the dispatched SquaredL2Block
// kernel, whose lanes are the tiles of a DenseMatrix. In the Lloyd and
// seeding passes the points are centroids and the lanes are data rows, so
// the kernel computes (centroid - row)^2 where SquaredL2(row, centroid)
// computes (row - centroid)^2. For non-NaN inputs these are the same bits:
// IEEE subtraction is exact under negation (x - x is +0 either way) and
// squaring drops the sign, so every term and every ascending-d sum agrees.

namespace zombie {

namespace {

constexpr size_t kLanes = DenseMatrix::kTileRows;

// Lloyd stops once an iteration improves inertia by less than this share.
constexpr double kTolerance = 1e-4;

}  // namespace

double SquaredL2(const double* a, const double* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double SquaredL2(const std::vector<double>& a, const std::vector<double>& b) {
  ZCHECK_EQ(a.size(), b.size());
  return SquaredL2(a.data(), b.data(), a.size());
}

AssignStep AssignToNearest(simd::SquaredL2BlockFn block,
                           const DenseMatrix& rows, const double* centroids,
                           size_t k, std::vector<uint32_t>* assignments) {
  const size_t n = rows.num_rows();
  const size_t dim = rows.dim();
  AssignStep step;
  alignas(64) double dist[kLanes * kLanes];
  double best[kLanes];
  uint32_t best_c[kLanes];
  for (size_t t = 0; t < rows.num_tiles(); ++t) {
    std::fill(best, best + kLanes, std::numeric_limits<double>::max());
    std::fill(best_c, best_c + kLanes, 0u);
    for (size_t c0 = 0; c0 < k; c0 += kLanes) {
      const size_t points = std::min(kLanes, k - c0);
      block(centroids + c0 * dim, points, rows.tile(t), dim, dist);
      for (size_t p = 0; p < points; ++p) {
        for (size_t l = 0; l < kLanes; ++l) {
          if (dist[p * kLanes + l] < best[l]) {
            best[l] = dist[p * kLanes + l];
            best_c[l] = static_cast<uint32_t>(c0 + p);
          }
        }
      }
    }
    const size_t lanes = std::min(kLanes, n - t * kLanes);
    for (size_t l = 0; l < lanes; ++l) {
      uint32_t& a = (*assignments)[t * kLanes + l];
      if (a != best_c[l]) {
        a = best_c[l];
        step.changed = true;
      }
      step.inertia += best[l];
    }
  }
  return step;
}

size_t NearestRow(const DenseMatrix& centroids, const double* point,
                  double* best_dist) {
  const simd::SquaredL2BlockFn block = simd::ActiveKernels().squared_l2_block;
  double best = std::numeric_limits<double>::max();
  size_t best_c = 0;
  alignas(64) double dist[kLanes];
  for (size_t t = 0; t < centroids.num_tiles(); ++t) {
    block(point, 1, centroids.tile(t), centroids.dim(), dist);
    const size_t lanes =
        std::min(kLanes, centroids.num_rows() - t * kLanes);
    for (size_t l = 0; l < lanes; ++l) {
      if (dist[l] < best) {
        best = dist[l];
        best_c = t * kLanes + l;
      }
    }
  }
  *best_dist = best;
  return best_c;
}

namespace {

// k-means++ seeding: first centroid uniform, then proportional to squared
// distance from the nearest chosen centroid. Returns k contiguous rows.
std::vector<double> SeedPlusPlus(simd::SquaredL2BlockFn block,
                                 const DenseMatrix& rows, size_t k,
                                 Rng* rng) {
  const size_t n = rows.num_rows();
  const size_t dim = rows.dim();
  std::vector<double> centroids(k * dim);
  rows.CopyRow(rng->NextBelow(n), centroids.data());
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  alignas(64) double dist[kLanes];
  for (size_t chosen = 1; chosen < k; ++chosen) {
    const double* latest = centroids.data() + (chosen - 1) * dim;
    for (size_t t = 0; t < rows.num_tiles(); ++t) {
      block(latest, 1, rows.tile(t), dim, dist);
      const size_t lanes = std::min(kLanes, n - t * kLanes);
      for (size_t l = 0; l < lanes; ++l) {
        double& m = min_dist[t * kLanes + l];
        m = std::min(m, dist[l]);
      }
    }
    size_t pick = rng->NextDiscrete(min_dist);
    if (pick >= n) {
      // All distances zero (duplicate points): fall back to uniform.
      pick = rng->NextBelow(n);
    }
    rows.CopyRow(pick, centroids.data() + chosen * dim);
  }
  return centroids;
}

DenseMatrix ToMatrix(const std::vector<double>& contiguous, size_t k,
                     size_t dim) {
  DenseMatrix m(dim);
  for (size_t c = 0; c < k; ++c) m.AppendRow(contiguous.data() + c * dim);
  return m;
}

}  // namespace

KMeansResult RunKMeans(const DenseMatrix& rows, const KMeansConfig& config) {
  ZCHECK(!rows.empty()) << "k-means needs at least one row";
  ZCHECK_GE(config.k, 1u);
  const size_t n = rows.num_rows();
  const size_t dim = rows.dim();
  const size_t k = config.k;

  KMeansResult result;
  Rng rng(config.seed);

  if (k >= n) {
    // Degenerate: one point per cluster (trailing clusters empty).
    result.assignments.resize(n);
    result.centroids = DenseMatrix(k, dim);
    std::vector<double> row(dim);
    for (size_t i = 0; i < n; ++i) {
      result.assignments[i] = static_cast<uint32_t>(i);
      rows.CopyRow(i, row.data());
      result.centroids.SetRow(i, row.data());
    }
    result.inertia = 0.0;
    return result;
  }

  const simd::SquaredL2BlockFn block = simd::ActiveKernels().squared_l2_block;
  // Centroids stay contiguous rows while iterating: blocks of them are the
  // kernel's points argument.
  std::vector<double> centroids = SeedPlusPlus(block, rows, k, &rng);
  result.assignments.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();
  std::vector<double> sums(k * dim);
  std::vector<size_t> counts(k);
  std::vector<double> row(dim);

  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const AssignStep step = AssignToNearest(block, rows, centroids.data(), k,
                                            &result.assignments);
    result.inertia = step.inertia;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t c = result.assignments[i];
      ++counts[c];
      double* sum = sums.data() + c * dim;
      const double* r = rows.tile(i / kLanes) + i % kLanes;
      for (size_t d = 0; d < dim; ++d) sum[d] += r[d * kLanes];
    }
    for (size_t c = 0; c < k; ++c) {
      double* centroid = centroids.data() + c * dim;
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the point farthest from its
        // current centroid (a standard fix that keeps k live clusters).
        // Centroids below c are already updated, so this is one distance
        // per row to its own centroid, on the scalar reference.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          rows.CopyRow(i, row.data());
          double d = SquaredL2(
              row.data(), centroids.data() + result.assignments[i] * dim,
              dim);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        rows.CopyRow(far, centroid);
        continue;
      }
      const double* sum = sums.data() + c * dim;
      for (size_t d = 0; d < dim; ++d) {
        centroid[d] = sum[d] / static_cast<double>(counts[c]);
      }
    }

    if (!step.changed) break;
    if (prev_inertia < std::numeric_limits<double>::max() &&
        prev_inertia > 0.0 &&
        (prev_inertia - step.inertia) / prev_inertia < kTolerance) {
      break;
    }
    prev_inertia = step.inertia;
  }
  result.centroids = ToMatrix(centroids, k, dim);
  return result;
}

}  // namespace zombie

#ifndef ZOMBIE_INDEX_KMEANS_H_
#define ZOMBIE_INDEX_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/dense_matrix.h"
#include "ml/simd/sparse_kernels.h"

namespace zombie {

class Rng;

/// Configuration for Lloyd's k-means with k-means++ seeding.
struct KMeansConfig {
  size_t k = 16;
  size_t max_iterations = 25;
  /// Stop when no assignment changes (always checked) or when the relative
  /// inertia improvement falls below this threshold.
  double tolerance = 1e-4;
  uint64_t seed = 7;
};

/// Result of one clustering run.
struct KMeansResult {
  std::vector<uint32_t> assignments;  // per row: cluster id < k
  DenseMatrix centroids;              // k rows (possibly empty cluster)
  double inertia = 0.0;               // sum of squared distances
  size_t iterations = 0;
};

/// Clusters the rows of `rows` into `k` groups. If k >= #rows, each row
/// gets its own cluster. Empty clusters are re-seeded from the point
/// farthest from its centroid. Deterministic given config.seed.
KMeansResult RunKMeans(const DenseMatrix& rows, const KMeansConfig& config);

/// Squared Euclidean distance between equal-length dense vectors: the
/// reference every dense distance in the index reproduces bit for bit
/// (terms (a[d] - b[d])^2 added in ascending d, starting from 0.0).
double SquaredL2(const double* a, const double* b, size_t dim);
double SquaredL2(const std::vector<double>& a, const std::vector<double>& b);

/// What one Lloyd assignment pass changed.
struct AssignStep {
  double inertia = 0.0;  // sum of each row's best distance, in row order
  bool changed = false;  // some row moved to another cluster
};

/// Lloyd's assignment step: moves every row of `rows` to the nearest of
/// the k centroids stored contiguously (row-major, rows.dim() wide) at
/// `centroids`, scanning ids in ascending order with strict `<` so ties go
/// to the lower id. Distances come from `to_lanes`, one call per
/// (centroid, tile of 8 rows).
AssignStep AssignToNearest(simd::SquaredL2ToLanesFn to_lanes,
                           const DenseMatrix& rows, const double* centroids,
                           size_t k, std::vector<uint32_t>* assignments);

/// Nearest row of `centroids` to `point` (centroids.dim() doubles): ids in
/// ascending order, strict `<`, ties to the lower id. Writes its distance
/// to `*best_dist` (DBL_MAX and id 0 if no distance is below DBL_MAX).
size_t NearestRow(const DenseMatrix& centroids, const double* point,
                  double* best_dist);

}  // namespace zombie

#endif  // ZOMBIE_INDEX_KMEANS_H_

// Complete-path enumeration for the DPCP-p-EP analysis.
//
// The per-path response-time bound of Theorem 1 depends on a path lambda
// only through (i) its length L(lambda) and (ii) its per-resource on-path
// request counts N^lambda_{i,q}.  Every bound term is monotonically
// non-decreasing in L(lambda) for a fixed request vector, so among paths
// with identical request vectors only the longest matters.  We therefore
// enumerate *path signatures*: request-vector -> max path length.  This
// collapses the (potentially huge) path space of dense DAGs to the set of
// distinct request vectors, which is what the analysis cost actually
// scales with.
#pragma once

#include <cstdint>
#include <vector>

#include "model/task.hpp"

namespace dpcp {

/// One equivalence class of complete paths of a task (AoS materialisation
/// of a PathEnumResult row; the analyses walk the SoA storage directly).
struct PathSignature {
  /// Max L(lambda) among the paths in the class.
  Time length = 0;
  /// requests[k] = N^lambda_{i,q} for q = task.used_resources()[k].
  /// (Compressed to the task's used resources; unused resources are 0.)
  std::vector<int> requests;
};

/// Path-signature classes in structure-of-arrays layout: class i has max
/// path length `lengths[i]` and request vector
/// `requests[i*stride() .. i*stride()+stride())`.  The EP analysis walks
/// every class of every task per wcrt query, so the request vectors live
/// in one flat slab (sequential loads, one allocation) instead of one
/// heap vector per class.  Class order is unspecified — consumers reduce
/// over the classes (the EP bound takes a max) and must not depend on it.
struct PathEnumResult {
  std::vector<Time> lengths;
  std::vector<int> requests;  // flat, lengths.size() * stride() entries
  /// Resource ids corresponding to positions within a request vector.
  std::vector<ResourceId> resource_index;
  /// Complete paths the classes cover: the task's exact complete-path
  /// count (the classes may be fewer).  0 when truncated.
  std::int64_t paths_visited = 0;
  /// True iff the task has >= `max_paths` complete paths; there are then
  /// no classes and the caller must fall back to a sound
  /// over-approximation (the EN bound).
  bool truncated = false;

  std::size_t size() const { return lengths.size(); }
  std::size_t stride() const { return resource_index.size(); }
  const int* requests_of(std::size_t i) const {
    return requests.data() + i * stride();
  }
  /// AoS copy for tests and tools.
  std::vector<PathSignature> signatures() const;
};

/// Enumerates the complete (head -> tail) path signatures of `task`, or
/// reports it truncated when it has `max_paths` (the complete-path budget)
/// or more complete paths.  The task must be finalized and valid.
PathEnumResult enumerate_path_signatures(const DagTask& task,
                                         std::int64_t max_paths = 200'000);

}  // namespace dpcp

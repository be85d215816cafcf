#include "model/paths.hpp"

#include <algorithm>
#include <cassert>

namespace dpcp {
namespace {

/// The complete-path classes of a task whose complete-path count is below
/// budget (the caller's saturating count guarantees it), built by a
/// reverse-topological merge: states(v) = the distinct suffix request
/// vectors from v with their max suffix length and exact suffix path
/// count.  Shared suffixes collapse once instead of being re-walked per
/// prefix, so the work is O(sum over edges of successor-state counts)
/// rather than one step per complete path.  The counts sum to the exact
/// complete-path total, which is paths_visited.
///
/// A request vector is the DP key: W 64-bit words of 8-, 16- or 32-bit
/// lanes, one lane per used resource.  The lane width is the smallest
/// that holds the task's largest N_{i,q}; a path's count never exceeds
/// the task total, so a lane never overflows and adding keys word-wise
/// adds them lane-wise.  Generated tasks (<= 16 used resources, N_{i,q}
/// <= 50) need at most 2 words of 8-bit lanes.  Class order is the order
/// in which a class first reaches the final merge; it does not depend on
/// the key width or the hash.
class ClassMerger {
 public:
  explicit ClassMerger(const DagTask& task) : task_(task) {
    result_.resource_index = task.used_resources();
    int max_requests = 0;
    for (ResourceId q : result_.resource_index)
      max_requests = std::max(max_requests, task.usage(q).max_requests);
    bits_ = max_requests <= 0xFF ? 8 : max_requests <= 0xFFFF ? 16 : 32;
    const std::size_t lanes = 64 / bits_;
    words_ = (result_.stride() + lanes - 1) / lanes;
    stride_ = words_ + 2;

    // Per-vertex key deltas: the nonzero words of each vertex's request
    // vector, packed from its request pairs.  Pairs come in increasing
    // resource order, so a vertex's words do too.  Storage follows the
    // requests made, not vertices x words.
    std::vector<int> lane(static_cast<std::size_t>(task.num_resources()), -1);
    for (std::size_t k = 0; k < result_.stride(); ++k)
      lane[static_cast<std::size_t>(result_.resource_index[k])] =
          static_cast<int>(k);
    delta_begin_.reserve(static_cast<std::size_t>(task.vertex_count()) + 1);
    delta_begin_.push_back(0);
    for (VertexId v = 0; v < task.vertex_count(); ++v) {
      for (const VertexRequest& r : task.requests(v)) {
        const auto k = static_cast<std::size_t>(
            lane[static_cast<std::size_t>(r.resource)]);
        const Delta d{k / lanes, static_cast<std::uint64_t>(r.count)
                                     << (bits_ * (k % lanes))};
        if (delta_.size() > delta_begin_.back() && delta_.back().word == d.word)
          delta_.back().add += d.add;
        else
          delta_.push_back(d);
      }
      delta_begin_.push_back(delta_.size());
    }
  }

  PathEnumResult run() {
    const Dag& g = task_.graph();
    const auto nv = static_cast<std::size_t>(g.size());
    // Per-vertex state ranges into the pool, filled in reverse
    // topological order so every successor's range exists first.
    std::vector<std::size_t> sbeg(nv), send(nv);
    const auto order = g.topological_order();
    for (auto it = order.end(); it != order.begin();) {
      const VertexId v = *--it;
      const auto uv = static_cast<std::size_t>(v);
      const Delta* db = delta_.data() + delta_begin_[uv];
      const Delta* de = delta_.data() + delta_begin_[uv + 1];
      const Time c = task_.vertex_wcet(v);
      sbeg[uv] = states();
      const auto succ = g.successors(v);
      if (succ.empty()) {
        // Tail vertex: one suffix class -- itself.
        std::uint64_t* st = grow();
        std::fill(st, st + words_, 0);
        for (const Delta* d = db; d != de; ++d) st[d->word] = d->add;
        st[words_] = static_cast<std::uint64_t>(c);
        st[words_ + 1] = 1;
        used_ += stride_;
      } else {
        std::size_t incoming = 0;
        for (VertexId w : succ)
          incoming += send[static_cast<std::size_t>(w)] -
                      sbeg[static_cast<std::size_t>(w)];
        reset_table(incoming);
        for (VertexId w : succ) {
          const auto uw = static_cast<std::size_t>(w);
          for (std::size_t s = sbeg[uw]; s < send[uw]; ++s)
            merge(s, db, de, c);
        }
      }
      send[uv] = states();
    }

    // Final merge across heads (distinct heads can reach equal classes).
    std::size_t incoming = 0;
    for (VertexId h : g.heads())
      incoming += send[static_cast<std::size_t>(h)] -
                  sbeg[static_cast<std::size_t>(h)];
    reset_table(incoming);
    const std::size_t final_beg = states();
    for (VertexId h : g.heads()) {
      const auto uh = static_cast<std::size_t>(h);
      for (std::size_t s = sbeg[uh]; s < send[uh]; ++s)
        merge(s, nullptr, nullptr, 0);
    }

    const std::size_t lanes = 64 / bits_;
    const std::uint64_t mask = (std::uint64_t{1} << bits_) - 1;
    const std::size_t classes = states() - final_beg;
    result_.lengths.reserve(classes);
    result_.requests.reserve(classes * result_.stride());
    for (std::size_t i = final_beg; i < states(); ++i) {
      const std::uint64_t* st = pool_.data() + i * stride_;
      result_.lengths.push_back(static_cast<Time>(st[words_]));
      result_.paths_visited += static_cast<std::int64_t>(st[words_ + 1]);
      for (std::size_t k = 0; k < result_.stride(); ++k)
        result_.requests.push_back(
            static_cast<int>((st[k / lanes] >> (bits_ * (k % lanes))) & mask));
    }
    return std::move(result_);
  }

 private:
  /// One nonzero word of a vertex's request vector.
  struct Delta {
    std::size_t word;
    std::uint64_t add;
  };
  /// One slot of the dedup table: live iff `epoch` is the current tag.
  struct Slot {
    std::uint32_t epoch = 0;
    std::size_t state = 0;
  };

  std::size_t states() const { return used_ / stride_; }

  /// The free state slot at the pool's end, growing the pool if needed.
  std::uint64_t* grow() {
    if (used_ + stride_ > pool_.size())
      pool_.resize(std::max(2 * pool_.size(), used_ + stride_));
    return pool_.data() + used_;
  }

  /// Prepares the dedup table for one merge of up to `incoming` states:
  /// sized >= 2x up front so merge() never grows mid-merge, cleared in
  /// O(1) by bumping the epoch.
  void reset_table(std::size_t incoming) {
    std::size_t want = 64;
    while (want < incoming * 2) want *= 2;
    if (want > table_.size() || epoch_ == UINT32_MAX) {
      table_.assign(std::max(want, table_.size()), Slot{});
      epoch_ = 0;
    }
    mask_ = table_.size() - 1;
    ++epoch_;
  }

  /// Folds pool state s, extended by a vertex with key delta [d, de) and
  /// WCET c, into the current merge.  The candidate is built in the free
  /// slot at the pool's end: a new class keeps it, a repeat leaves it free
  /// after taking the max length and summing the counts.
  void merge(std::size_t s, const Delta* d, const Delta* de, Time c) {
    std::uint64_t* key = grow();
    const std::uint64_t* src = pool_.data() + s * stride_;
    // Key words through the 64-bit MurmurHash3 finalizer, so every key
    // bit reaches the low bits that index the table.
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t w = src[i];
      if (d != de && d->word == i) w += (d++)->add;
      key[i] = w;
      h ^= w;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      h ^= h >> 33;
      h *= 0xC4CEB9FE1A85EC53ull;
      h ^= h >> 33;
    }
    const std::uint64_t len = src[words_] + static_cast<std::uint64_t>(c);
    const std::uint64_t cnt = src[words_ + 1];
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = table_[i];
      if (slot.epoch != epoch_) {
        slot = Slot{epoch_, states()};
        key[words_] = len;
        key[words_ + 1] = cnt;
        used_ += stride_;
        return;
      }
      std::uint64_t* dst = pool_.data() + slot.state * stride_;
      std::size_t k = 0;
      while (k < words_ && dst[k] == key[k]) ++k;
      if (k == words_) {
        dst[words_] = std::max(dst[words_], len);
        dst[words_ + 1] += cnt;
        return;
      }
    }
  }

  const DagTask& task_;
  std::size_t bits_ = 8;
  std::size_t words_ = 0;
  std::size_t stride_ = 2;
  std::vector<Delta> delta_;  // vertex-major
  std::vector<std::size_t> delta_begin_;  // per vertex, plus sentinel
  // Every vertex's states in pool_[0, used_), stride_ words each: the key
  // words, then the max suffix length and the exact suffix path count.
  // Neither overflows: lengths are bounded by C_i, and every suffix path
  // extends to at least one complete path, of which there are fewer than
  // the int64 budget.
  std::vector<std::uint64_t> pool_;
  std::size_t used_ = 0;
  std::vector<Slot> table_;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 0;
  PathEnumResult result_;
};

}  // namespace

std::vector<PathSignature> PathEnumResult::signatures() const {
  std::vector<PathSignature> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const int* req = requests_of(i);
    out.push_back(PathSignature{lengths[i], std::vector<int>(req, req + stride())});
  }
  return out;
}

PathEnumResult enumerate_path_signatures(const DagTask& task,
                                         std::int64_t max_paths) {
  assert(max_paths > 0);
  assert(task.graph().is_acyclic());
  // A task with max_paths or more complete paths is truncated, and every
  // caller discards a truncated result (EP falls back to the EN
  // envelope).  The saturating count decides that in O(V + E), before
  // the DP does work that would be thrown away.
  if (task.graph().count_complete_paths(max_paths) >= max_paths) {
    PathEnumResult out;
    out.resource_index = task.used_resources();
    out.truncated = true;
    return out;
  }
  return ClassMerger(task).run();
}

}  // namespace dpcp

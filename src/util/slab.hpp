// Typed non-owning view over a contiguous array.
//
// `Dag` and `DagTask` hand out their frozen arrays (successors, heads,
// topological order, vertex WCETs, per-vertex requests) as Slab views so
// readers walk the owner's storage without copying it.  A view is valid
// while its owner is alive and unmodified.
#pragma once

#include <cstddef>

namespace dpcp {

/// Pointer + length, value semantics, range-for iterable.  A Slab never
/// owns its memory.
template <typename T>
struct Slab {
  T* data = nullptr;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  T& operator[](std::size_t i) { return data[i]; }
  const T& operator[](std::size_t i) const { return data[i]; }
  T* begin() { return data; }
  T* end() { return data + count; }
  const T* begin() const { return data; }
  const T* end() const { return data + count; }
};

}  // namespace dpcp

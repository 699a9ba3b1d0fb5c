// Domain-decomposition helpers shared by the mini-apps.
//
// All six benchmarks strong-scale one fixed input problem across ranks
// (paper Section 2), so they all need the same machinery: balanced block
// partitions of an index range and the owner of an index under one.
#pragma once

#include <cstdint>

#include "simmpi/errors.hpp"

namespace resilience::simmpi {

/// Half-open index range [lo, hi) owned by one rank.
struct BlockRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] std::int64_t count() const noexcept { return hi - lo; }
  [[nodiscard]] bool contains(std::int64_t i) const noexcept {
    return i >= lo && i < hi;
  }
  bool operator==(const BlockRange&) const = default;
};

/// Balanced block partition of [0, n) into `parts` ranges; the first
/// n % parts ranges get one extra element (MPI_Scatterv-style layout).
BlockRange block_partition(std::int64_t n, int parts, int index);

/// The rank owning global index i under block_partition(n, parts, ·).
int block_owner(std::int64_t n, int parts, std::int64_t i);

}  // namespace resilience::simmpi

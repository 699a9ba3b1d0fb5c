#include "simmpi/topology.hpp"

#include <algorithm>

namespace resilience::simmpi {

BlockRange block_partition(std::int64_t n, int parts, int index) {
  if (parts < 1 || index < 0 || index >= parts) {
    throw UsageError("block_partition: bad parts/index");
  }
  if (n < 0) throw UsageError("block_partition: negative n");
  const std::int64_t base = n / parts;
  const std::int64_t extra = n % parts;
  const std::int64_t lo =
      index * base + std::min<std::int64_t>(index, extra);
  const std::int64_t len = base + (index < extra ? 1 : 0);
  return {lo, lo + len};
}

int block_owner(std::int64_t n, int parts, std::int64_t i) {
  if (i < 0 || i >= n) throw UsageError("block_owner: index out of range");
  const std::int64_t base = n / parts;
  const std::int64_t extra = n % parts;
  // First `extra` blocks have base+1 elements.
  const std::int64_t big_span = extra * (base + 1);
  if (i < big_span) {
    return static_cast<int>(i / (base + 1));
  }
  return static_cast<int>(extra + (i - big_span) / base);
}

}  // namespace resilience::simmpi

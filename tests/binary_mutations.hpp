// Deterministic mutations of a valid binary encoding, shared by the
// decoder robustness tests (shard frames, golden-v2 store files).
//
// Each call returns one corrupted copy of the input: a few bit flips, a
// truncation, a u64 count inflated past anything the input could hold,
// or one byte overwritten with a random value (tags, enum fields).
// Inflated counts are at least 2^61, so a decoder that sizes a vector
// from one without checking fails at once (length_error) instead of
// zero-filling gigabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace resilience::test {

/// `count_offsets` names where the input stores u64 element counts; an
/// inflation lands on one of them when given, else anywhere.
inline std::vector<std::byte> mutate_encoding(
    std::span<const std::byte> valid, util::Xoshiro256& rng,
    std::span<const std::size_t> count_offsets = {}) {
  static constexpr std::uint64_t kHugeCounts[] = {
      std::uint64_t{1} << 61, std::uint64_t{1} << 62, std::uint64_t{1} << 63,
      ~std::uint64_t{0}};
  std::vector<std::byte> out(valid.begin(), valid.end());
  if (out.empty()) return out;
  switch (rng.uniform_below(4)) {
    case 0:  // one to three bit flips
      for (std::uint64_t n = 1 + rng.uniform_below(3); n > 0; --n) {
        out[rng.uniform_below(out.size())] ^=
            static_cast<std::byte>(1u << rng.uniform_below(8));
      }
      break;
    case 1:  // truncation, possibly to nothing
      out.resize(rng.uniform_below(out.size()));
      break;
    case 2: {  // an inflated little-endian u64 count
      if (out.size() < 8) break;
      const std::size_t at =
          count_offsets.empty()
              ? rng.uniform_below(out.size() - 7)
              : count_offsets[rng.uniform_below(count_offsets.size())];
      const std::uint64_t value = kHugeCounts[rng.uniform_below(4)];
      for (std::size_t b = 0; b < 8; ++b) {
        out[at + b] = static_cast<std::byte>((value >> (8 * b)) & 0xff);
      }
      break;
    }
    default:  // a random byte value
      out[rng.uniform_below(out.size())] =
          static_cast<std::byte>(rng.next() & 0xff);
      break;
  }
  return out;
}

}  // namespace resilience::test

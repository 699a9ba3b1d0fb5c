#include "simmpi/comm.hpp"

namespace resilience::simmpi {

namespace detail {
namespace {

// true = fuse collectives (default), false = forced onto the mailbox
// decomposition. Programmatic test/bench toggle only.
std::atomic<bool> g_fused_collectives{true};

}  // namespace

bool fused_collectives_enabled() noexcept {
  return g_fused_collectives.load(std::memory_order_relaxed);
}

void set_fused_collectives_enabled(bool enabled) noexcept {
  g_fused_collectives.store(enabled, std::memory_order_relaxed);
}

}  // namespace detail

namespace {
struct SplitEntry {
  int color = 0;
  int key = 0;
  int rank = 0;
};
static_assert(std::is_trivially_copyable_v<SplitEntry>);
}  // namespace

Comm Comm::split(int color, int key) {
  if (salt_ != 0) {
    throw UsageError("split: only the world communicator can be split");
  }
  constexpr int kMaxSplits = 16;
  constexpr int kMaxColors = 15;
  if (split_seq_ >= kMaxSplits) {
    throw UsageError("split: too many split calls on this communicator");
  }

  // Everyone learns everyone's (color, key).
  std::vector<SplitEntry> entries(static_cast<std::size_t>(size_));
  const SplitEntry mine{color, key, rank_};
  allgather(std::span<const SplitEntry>(&mine, 1),
            std::span<SplitEntry>(entries));

  // Distinct colors in sorted order determine each child's tag salt
  // deterministically and identically on every member.
  std::vector<int> colors;
  colors.reserve(entries.size());
  for (const auto& e : entries) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  if (static_cast<int>(colors.size()) > kMaxColors) {
    throw UsageError("split: more than 15 distinct colors");
  }
  const int color_index = static_cast<int>(
      std::find(colors.begin(), colors.end(), color) - colors.begin());
  const int salt = split_seq_ * kMaxColors + color_index + 1;
  ++split_seq_;

  // My group: members with my color, ordered by (key, rank).
  std::vector<SplitEntry> members;
  for (const auto& e : entries) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(),
            [](const SplitEntry& a, const SplitEntry& b) {
              return a.key != b.key ? a.key < b.key : a.rank < b.rank;
            });
  std::vector<int> group;
  group.reserve(members.size());
  int my_local = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(members[i].rank);  // world communicator: rank == world
    if (members[i].rank == rank_) my_local = static_cast<int>(i);
  }
  const int group_size = static_cast<int>(group.size());
  return Comm(job_, my_local, group_size, salt, std::move(group));
}

}  // namespace resilience::simmpi

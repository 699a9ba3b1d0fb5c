#include "harness/golden_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "harness/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binio.hpp"

namespace resilience::harness {

namespace {

/// How long a contender waits for a lock holder before declaring the lock
/// stale (a crashed filler) and taking over.
constexpr auto kLockBudget = std::chrono::seconds(10);
constexpr auto kLockPoll = std::chrono::milliseconds(100);

// ---- golden-v2 binary layout (DESIGN.md §15) -------------------------------
//
// header (36 bytes):
//   [ 0.. 8) magic "RESGLDN2"
//   [ 8..12) u32 format version (3: adds per-rank delivered-Real counts to
//            the golden section and per-rank boundary-state element counts
//            to the checkpoint section — the payload and resident-state
//            sample spaces; a version-2 file decodes as corrupt and is
//            unlinked + refilled)
//   [12..16) u32 section count
//   [16..20) u32 nranks
//   [20..24) u32 flags (bit 0: file carries checkpoint data)
//   [24..32) u64 checkpoint_budget
//   [32..36) u32 CRC32 of bytes [0, 32)
// section table (24 bytes per section):
//   {u32 id, u32 CRC32 of the payload, u64 absolute offset, u64 size}
// then the section payloads, packed in table order.

constexpr char kV2Magic[8] = {'R', 'E', 'S', 'G', 'L', 'D', 'N', '2'};
constexpr std::uint32_t kV2Version = 3;
constexpr std::size_t kV2HeaderSize = 36;
constexpr std::size_t kV2TableEntrySize = 24;

enum V2Section : std::uint32_t {
  kSecAppLabel = 1,     ///< raw UTF-8 app label bytes
  kSecGolden = 2,       ///< profiles, signature, max_rank_ops
  kSecCheckpoints = 3,  ///< boundary records incl. raw rank state
};

constexpr std::size_t kProfileCells =
    static_cast<std::size_t>(fsefi::kNumRegions) * fsefi::kNumOpKinds;

/// App label + rank count, reduced to a portable file stem: alphanumerics
/// kept, every other run of characters collapsed to one '_'.
std::string sanitize(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::span<const std::uint64_t> profile_cells(const fsefi::OpCountProfile& p) {
  return {&p.counts[0][0], kProfileCells};
}

void write_profiles(util::BinWriter& w,
                    const std::vector<fsefi::OpCountProfile>& profiles) {
  w.u64(profiles.size());
  for (const auto& p : profiles) w.u64_array(profile_cells(p));
}

std::vector<fsefi::OpCountProfile> read_profiles(util::BinReader& r) {
  std::vector<fsefi::OpCountProfile> profiles(
      r.count(kProfileCells * sizeof(std::uint64_t)));
  for (auto& p : profiles) {
    r.u64_array(std::span<std::uint64_t>(&p.counts[0][0], kProfileCells));
  }
  return profiles;
}

void write_doubles(util::BinWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  w.f64_array(v);
}

std::vector<double> read_doubles(util::BinReader& r) {
  std::vector<double> v(r.count(sizeof(double)));
  r.f64_array(v);
  return v;
}

std::vector<std::byte> encode_golden_v2(const std::string& label, int nranks,
                                        const GoldenRun& golden) {
  util::BinWriter w;
  w.bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kV2Magic), sizeof(kV2Magic)));
  w.u32(kV2Version);
  const bool has_cp = golden.checkpoints != nullptr;
  const std::uint32_t nsections = has_cp ? 3 : 2;
  w.u32(nsections);
  w.u32(static_cast<std::uint32_t>(nranks));
  // Captures are unconditional now; the flag survives so files written by
  // older binaries under RESILIENCE_CHECKPOINT=0 (flag 0, no capture
  // data) read as misses and get refilled. An app without boundary hooks
  // still writes flag 1 with no checkpoint section.
  w.u32(1u);
  w.u64(checkpoint_budget());
  w.u32(0);  // header CRC, patched below
  const std::size_t table_off = w.size();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    w.u32(0);
    w.u32(0);
    w.u64(0);
    w.u64(0);
  }

  struct SectionRange {
    std::uint32_t id;
    std::size_t offset;
    std::size_t size;
  };
  std::vector<SectionRange> sections;
  const auto begin_section = [&](std::uint32_t id) {
    sections.push_back({id, w.size(), 0});
  };
  const auto end_section = [&] {
    sections.back().size = w.size() - sections.back().offset;
  };

  begin_section(kSecAppLabel);
  w.bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(label.data()), label.size()));
  end_section();

  begin_section(kSecGolden);
  w.u64(golden.max_rank_ops);
  write_profiles(w, golden.profiles);
  write_doubles(w, golden.signature);
  w.u64(golden.recv_reals.size());
  w.u64_array(golden.recv_reals);
  end_section();

  if (has_cp) {
    const CheckpointData& cp = *golden.checkpoints;
    begin_section(kSecCheckpoints);
    w.i32(cp.nranks);
    w.i32(cp.iterations);
    w.u64(cp.state_reals.size());
    w.u64_array(cp.state_reals);
    write_doubles(w, cp.signature);
    write_profiles(w, cp.final_profiles);
    w.u64(cp.boundaries.size());
    for (const BoundaryRecord& rec : cp.boundaries) {
      w.i32(rec.iter);
      w.u8(rec.stored() ? 1 : 0);
      write_profiles(w, rec.profiles);
      w.u64(rec.digests.size());
      w.u64_array(rec.digests);
      if (rec.stored()) {
        for (const StateBytes& state : rec.state) {
          const auto bytes = state.bytes();
          w.u64(bytes.size());
          w.bytes(bytes);
        }
      }
    }
    end_section();
  }

  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionRange& sec = sections[i];
    const std::size_t entry = table_off + i * kV2TableEntrySize;
    w.patch_u32(entry, sec.id);
    w.patch_u32(entry + 4,
                util::crc32(w.buffer().subspan(sec.offset, sec.size)));
    w.patch_u64(entry + 8, sec.offset);
    w.patch_u64(entry + 16, sec.size);
  }
  w.patch_u32(kV2HeaderSize - 4,
              util::crc32(w.buffer().subspan(0, kV2HeaderSize - 4)));
  return std::move(w).take();
}

/// Parse a golden-v2 mapping. Throws util::BinError on any structural or
/// checksum problem (the caller unlinks + refills); returns nullptr for a
/// structurally valid file captured under other checkpoint settings (a
/// plain miss that leaves the file in place).
std::shared_ptr<const GoldenRun> decode_golden_v2(
    const std::shared_ptr<util::MappedFile>& map, const std::string& label,
    int nranks) {
  const std::span<const std::byte> file = map->bytes();
  util::BinReader header(file);
  const auto magic = header.bytes(sizeof(kV2Magic));
  if (std::memcmp(magic.data(), kV2Magic, sizeof(kV2Magic)) != 0) {
    throw util::BinError("golden store: bad v2 magic");
  }
  if (header.u32() != kV2Version) {
    throw util::BinError("golden store: unsupported v2 format version");
  }
  const std::uint32_t nsections = header.u32();
  if (header.u32() != static_cast<std::uint32_t>(nranks)) {
    throw util::BinError("golden store: nranks mismatch");
  }
  const bool file_ckpt = (header.u32() & 1u) != 0;
  const std::uint64_t file_budget = header.u64();
  if (header.u32() != util::crc32(file.subspan(0, kV2HeaderSize - 4))) {
    throw util::BinError("golden store: header checksum mismatch");
  }

  struct TableEntry {
    std::uint32_t id;
    std::uint32_t crc;
    std::uint64_t offset;
    std::uint64_t size;
  };
  if (nsections > header.remaining() / kV2TableEntrySize) {
    throw util::BinError("golden store: section table out of range");
  }
  std::vector<TableEntry> table(nsections);
  std::uint32_t seen_ids = 0;
  for (TableEntry& e : table) {
    e.id = header.u32();
    // The table itself carries no checksum, so its ids are checked here:
    // an unknown or repeated id would otherwise silently drop a section.
    if (e.id < kSecAppLabel || e.id > kSecCheckpoints ||
        (seen_ids & (1u << e.id)) != 0) {
      throw util::BinError("golden store: unknown or repeated section id");
    }
    seen_ids |= 1u << e.id;
    e.crc = header.u32();
    e.offset = header.u64();
    e.size = header.u64();
    if (e.offset > file.size() || e.size > file.size() - e.offset) {
      throw util::BinError("golden store: section out of range");
    }
    if (util::crc32(file.subspan(e.offset, e.size)) != e.crc) {
      throw util::BinError("golden store: section checksum mismatch");
    }
  }
  const auto section = [&](std::uint32_t id) -> std::span<const std::byte> {
    for (const TableEntry& e : table) {
      if (e.id == id) return file.subspan(e.offset, e.size);
    }
    throw util::BinError("golden store: missing section");
  };

  const auto label_bytes = section(kSecAppLabel);
  if (label.size() != label_bytes.size() ||
      std::memcmp(label.data(), label_bytes.data(), label.size()) != 0) {
    throw util::BinError("golden store: app label mismatch");
  }

  // A file captured under RESILIENCE_CHECKPOINT=0 (flag 0: written before
  // captures became unconditional) or under another budget is valid but
  // not what this process would have profiled: the fast-forward path and
  // the resident-state sample space would diverge from a fresh run. Miss
  // without unlinking — a fill renames over it.
  if (!file_ckpt || file_budget != checkpoint_budget()) {
    return nullptr;
  }

  auto golden = std::make_shared<GoldenRun>();
  {
    util::BinReader r(section(kSecGolden));
    golden->max_rank_ops = r.u64();
    golden->profiles = read_profiles(r);
    golden->signature = read_doubles(r);
    golden->recv_reals.resize(r.count(sizeof(std::uint64_t)));
    r.u64_array(golden->recv_reals);
  }
  bool has_cp = false;
  for (const TableEntry& e : table) has_cp |= e.id == kSecCheckpoints;
  if (has_cp) {
    util::BinReader r(section(kSecCheckpoints));
    auto cp = std::make_shared<CheckpointData>();
    cp->nranks = r.i32();
    cp->iterations = r.i32();
    cp->state_reals.resize(r.count(sizeof(std::uint64_t)));
    r.u64_array(cp->state_reals);
    cp->signature = read_doubles(r);
    cp->final_profiles = read_profiles(r);
    const auto cp_ranks = static_cast<std::size_t>(cp->nranks);
    // A boundary record is at least iter + stored flag + two counts.
    const std::size_t nbound = r.count(4 + 1 + 8 + 8);
    cp->boundaries.reserve(nbound);
    for (std::size_t b = 0; b < nbound; ++b) {
      BoundaryRecord rec;
      rec.iter = r.i32();
      const bool stored = r.u8() != 0;
      rec.profiles = read_profiles(r);
      rec.digests.resize(r.count(sizeof(std::uint64_t)));
      r.u64_array(rec.digests);
      if (rec.profiles.size() != cp_ranks || rec.digests.size() != cp_ranks) {
        throw util::BinError("golden store: boundary has the wrong shape");
      }
      if (stored) {
        rec.state.reserve(cp_ranks);
        for (std::size_t rank = 0; rank < cp_ranks; ++rank) {
          const std::uint64_t len = r.u64();
          // Borrowed straight out of the mapping: the fast-forward
          // restore memcpys these bytes once, into the live StateViews.
          rec.state.push_back(StateBytes::borrowed(r.bytes(len)));
        }
      }
      cp->boundaries.push_back(std::move(rec));
    }
    cp->backing = map;  // pins the mapping behind the borrowed spans
    golden->checkpoints = std::move(cp);
  }
  return golden;
}

/// Write `payload` to `path` atomically (temp + rename). Throws
/// std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::byte> payload) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      throw std::runtime_error("golden store: cannot write " + tmp);
    }
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) {
      throw std::runtime_error("golden store: short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("golden store: cannot rename into " + path);
  }
}

}  // namespace

GoldenStore::GoldenStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("golden store: cannot create directory " + dir_ +
                             ": " + ec.message());
  }
}

std::string GoldenStore::path_for(const apps::App& app, int nranks) const {
  return dir_ + "/" + sanitize(app.label()) + "-r" + std::to_string(nranks) +
         "-v2.bin";
}

std::shared_ptr<const GoldenRun> GoldenStore::load(const apps::App& app,
                                                   int nranks) {
  return load_impl(app, nranks, /*count=*/true);
}

std::shared_ptr<const GoldenRun> GoldenStore::load_impl(const apps::App& app,
                                                        int nranks,
                                                        bool count) {
  const auto miss = [&]() -> std::shared_ptr<const GoldenRun> {
    if (count) telemetry::count(telemetry::Counter::GoldenStoreMisses);
    return nullptr;
  };
  const auto hit = [&](std::shared_ptr<const GoldenRun> golden) {
    if (count) telemetry::count(telemetry::Counter::GoldenStoreHits);
    return golden;
  };

  const std::string path = path_for(app, nranks);
  const auto map = util::MappedFile::open(path);
  if (map == nullptr) return miss();
  try {
    auto golden = decode_golden_v2(map, app.label(), nranks);
    if (golden != nullptr) return hit(std::move(golden));
    return miss();  // checkpoint-settings mismatch, file left in place
  } catch (const std::exception&) {
    // Corrupt, truncated, or mismatched content: unlink so the next fill
    // starts clean, and report a plain miss. The refill counts even on
    // the uncounted re-check path.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    telemetry::count(telemetry::Counter::GoldenStoreRefills);
    return miss();
  }
}

void GoldenStore::put(const apps::App& app, int nranks,
                      const GoldenRun& golden) {
  write_file_atomic(path_for(app, nranks),
                    encode_golden_v2(app.label(), nranks, golden));
}

std::shared_ptr<const GoldenRun> GoldenStore::load_or_fill(
    const apps::App& app, int nranks,
    const std::function<GoldenRun()>& profile) {
  if (auto golden = load(app, nranks)) return golden;
  const std::string lock = path_for(app, nranks) + ".lock";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      try {
        // Re-check under the lock: a competing filler may have completed
        // between our miss and the acquisition.
        auto golden = load_impl(app, nranks, /*count=*/false);
        if (golden == nullptr) {
          golden = std::make_shared<GoldenRun>(profile());
          put(app, nranks, *golden);
        }
        ::unlink(lock.c_str());
        return golden;
      } catch (...) {
        ::unlink(lock.c_str());
        throw;
      }
    }
    if (errno != EEXIST) break;  // unexpected: fall through to local profile
    // Another process is filling: poll for its result, then declare the
    // lock stale and take over.
    const auto deadline = std::chrono::steady_clock::now() + kLockBudget;
    bool holder_gone = false;
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(kLockPoll);
      if (auto golden = load_impl(app, nranks, /*count=*/false)) {
        telemetry::count(telemetry::Counter::GoldenStoreHits);
        return golden;
      }
      if (::access(lock.c_str(), F_OK) != 0) {
        holder_gone = true;  // holder released without a usable file: retry
        break;
      }
    }
    if (!holder_gone) {
      // The poll budget expired with the lock still present: a crashed
      // filler's leftovers. Break the lock and contend again.
      telemetry::count(telemetry::Counter::GoldenStoreLockTakeovers);
    }
    ::unlink(lock.c_str());
  }
  // Contended past the budget twice over: profile locally without
  // persisting rather than fail the campaign.
  return std::make_shared<GoldenRun>(profile());
}

}  // namespace resilience::harness

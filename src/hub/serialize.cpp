#include "hub/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hublab {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'A', 'B'};

/// Packed on-disk size of one label entry: u32 hub, u64 dist.
constexpr std::size_t kEntryBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Entries decoded per read: a hostile count can only make the loader
/// allocate what the stream actually delivers.
constexpr std::size_t kLoadChunkEntries = 4096;

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw ParseError("labeling file truncated");
  return value;
}

template <typename T>
void put(char*& at, T value) {
  std::memcpy(at, &value, sizeof value);
  at += sizeof value;
}

template <typename T>
T take(const char*& at) {
  T value{};
  std::memcpy(&value, at, sizeof value);
  at += sizeof value;
  return value;
}

}  // namespace

void save_labeling(const HubLabeling& labeling, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod<std::uint32_t>(out, kLabelingFormatVersion);
  write_pod<std::uint64_t>(out, labeling.num_vertices());
  // Each label (its count, then its packed entries) goes out in one write.
  std::vector<char> buffer;
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    const auto label = labeling.label(v);
    buffer.resize(sizeof(std::uint64_t) + label.size() * kEntryBytes);
    char* at = buffer.data();
    put<std::uint64_t>(at, label.size());
    for (const HubEntry& e : label) {
      put<std::uint32_t>(at, e.hub);
      put<std::uint64_t>(at, e.dist);
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  }
  if (!out) throw Error("labeling write failed");
}

HubLabeling load_labeling(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("labeling file: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kLabelingFormatVersion) throw ParseError("labeling file: unsupported version");
  const auto n = read_pod<std::uint64_t>(in);
  if (n > (1ULL << 32)) throw ParseError("labeling file: implausible vertex count");

  // Rows are appended as labels arrive, never sized from the header: a
  // short file claiming 2^32 vertices fails on truncation, not on memory.
  std::vector<std::vector<HubEntry>> rows;
  std::vector<char> buffer;
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto count = read_pod<std::uint64_t>(in);
    if (count > n) throw ParseError("labeling file: label larger than vertex count");
    std::vector<HubEntry>& row = rows.emplace_back();
    row.reserve(std::min<std::uint64_t>(count, kLoadChunkEntries));
    std::uint64_t prev_hub_plus_one = 0;
    for (std::uint64_t done = 0; done < count;) {
      const std::uint64_t chunk = std::min<std::uint64_t>(count - done, kLoadChunkEntries);
      buffer.resize(chunk * kEntryBytes);
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      if (!in) throw ParseError("labeling file truncated");
      const char* at = buffer.data();
      for (std::uint64_t i = 0; i < chunk; ++i) {
        const auto hub = take<std::uint32_t>(at);
        const auto dist = take<std::uint64_t>(at);
        if (hub >= n) throw ParseError("labeling file: hub id out of range");
        if (hub + 1ULL <= prev_hub_plus_one) throw ParseError("labeling file: hubs not ascending");
        prev_hub_plus_one = hub + 1ULL;
        row.push_back(HubEntry{hub, dist});
      }
      done += chunk;
    }
  }
  HubLabeling labeling(std::move(rows));
  labeling.finalize();
  return labeling;
}

void save_labeling_file(const HubLabeling& labeling, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + file_path);
  save_labeling(labeling, out);
}

HubLabeling load_labeling_file(const std::string& file_path) {
  std::ifstream in(file_path, std::ios::binary);
  if (!in) throw Error("cannot open: " + file_path);
  return load_labeling(in);
}

}  // namespace hublab

#include "core/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace catsched::core {

namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'S', 'N', 'P'};
// magic + version + kind + payload_len ... payload ... checksum
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8;
constexpr std::size_t kTrailerSize = 8;

/// The low \p n bytes of \p v at \p p, least significant first.
void store_le(std::uint8_t* p, std::uint64_t v, int n) noexcept {
  for (int i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32_le(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64_le(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

const char* to_string(SnapshotErrc code) noexcept {
  switch (code) {
    case SnapshotErrc::io_error:
      return "io_error";
    case SnapshotErrc::bad_magic:
      return "bad_magic";
    case SnapshotErrc::bad_version:
      return "bad_version";
    case SnapshotErrc::bad_kind:
      return "bad_kind";
    case SnapshotErrc::truncated:
      return "truncated";
    case SnapshotErrc::checksum_mismatch:
      return "checksum_mismatch";
  }
  return "unknown";
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void SnapshotWriter::put_u64(std::uint64_t v) { put_u64_le(buf_, v); }

void SnapshotWriter::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::put_int_vector(const std::vector<int>& v) {
  put_u64(v.size());
  for (int x : v) put_i64(x);
}

void SnapshotReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw SnapshotError(SnapshotErrc::truncated,
                        "snapshot payload ends mid-field");
  }
}

std::uint8_t SnapshotReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint64_t SnapshotReader::get_u64() {
  need(8);
  const std::uint64_t v = get_u64_le(data_ + pos_);
  pos_ += 8;
  return v;
}

std::int64_t SnapshotReader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double SnapshotReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::vector<int> SnapshotReader::get_int_vector() {
  const std::uint64_t count = get_u64();
  // Each element occupies 8 bytes; pre-check (division avoids overflow on
  // hostile counts) so a bad count cannot drive a huge allocation before
  // the underrun is noticed.
  if (count > remaining() / 8) {
    throw SnapshotError(SnapshotErrc::truncated,
                        "snapshot vector count exceeds remaining payload");
  }
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    v.push_back(static_cast<int>(get_i64()));
  }
  return v;
}

std::vector<std::uint8_t> frame_snapshot(
    std::uint32_t kind, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + kTrailerSize);
  out.resize(kHeaderSize);
  std::copy(kMagic, kMagic + 4, out.data());
  store_le(out.data() + 4, kSnapshotVersion, 4);
  store_le(out.data() + 8, kind, 4);
  store_le(out.data() + 12, payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64_le(out, fnv1a64(payload.data(), payload.size()));
  return out;
}

std::vector<std::uint8_t> unframe_snapshot(
    const std::vector<std::uint8_t>& file_bytes, std::uint32_t expected_kind,
    std::uint32_t* kind_out) {
  if (file_bytes.size() < kHeaderSize + kTrailerSize) {
    throw SnapshotError(SnapshotErrc::truncated,
                        "snapshot smaller than framing");
  }
  const std::uint8_t* p = file_bytes.data();
  if (!std::equal(kMagic, kMagic + 4, p)) {
    throw SnapshotError(SnapshotErrc::bad_magic, "not a snapshot file");
  }
  const std::uint32_t version = get_u32_le(p + 4);
  if (version != kSnapshotVersion) {
    throw SnapshotError(SnapshotErrc::bad_version,
                        "snapshot version " + std::to_string(version) +
                            ", expected " + std::to_string(kSnapshotVersion));
  }
  const std::uint32_t kind = get_u32_le(p + 8);
  if (expected_kind != 0 && kind != expected_kind) {
    throw SnapshotError(SnapshotErrc::bad_kind,
                        "snapshot kind " + std::to_string(kind) +
                            ", expected " + std::to_string(expected_kind));
  }
  const std::uint64_t len = get_u64_le(p + 12);
  // Size already checked >= framing, so this subtraction cannot wrap; the
  // reversed comparison avoids overflow on a hostile declared length.
  if (len != file_bytes.size() - kHeaderSize - kTrailerSize) {
    throw SnapshotError(SnapshotErrc::truncated,
                        "snapshot declares " + std::to_string(len) +
                            " payload bytes, file has " +
                            std::to_string(file_bytes.size()));
  }
  const std::uint64_t declared =
      get_u64_le(p + kHeaderSize + static_cast<std::size_t>(len));
  const std::uint64_t actual =
      fnv1a64(p + kHeaderSize, static_cast<std::size_t>(len));
  if (declared != actual) {
    throw SnapshotError(SnapshotErrc::checksum_mismatch,
                        "snapshot checksum mismatch (torn or corrupt write)");
  }
  if (kind_out != nullptr) *kind_out = kind;
  return std::vector<std::uint8_t>(p + kHeaderSize,
                                   p + kHeaderSize + static_cast<std::size_t>(len));
}

void write_snapshot_file(const std::string& path, std::uint32_t kind,
                         const std::vector<std::uint8_t>& payload,
                         FaultPlan* fault) {
  std::vector<std::uint8_t> framed = frame_snapshot(kind, payload);
  if (fault != nullptr && fault->should_corrupt_snapshot()) {
    // Flip one payload byte *after* checksumming (or a checksum byte for an
    // empty payload) — the written file is valid-looking but fails
    // verification, exactly like a torn write.
    const std::size_t victim =
        payload.empty() ? framed.size() - 1 : kHeaderSize + payload.size() / 2;
    framed[victim] ^= 0x01;
  }
  const std::string tmp = path + ".tmp";
  const std::string prev = path + ".prev";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError(SnapshotErrc::io_error,
                          "cannot open " + tmp + " for writing");
    }
    out.write(reinterpret_cast<const char*>(framed.data()),
              static_cast<std::streamsize>(framed.size()));
    out.flush();
    if (!out) {
      throw SnapshotError(SnapshotErrc::io_error, "short write to " + tmp);
    }
  }
  // Rotate: keep the outgoing image as .prev so a torn final rename (or a
  // corrupted new image) still leaves one good checkpoint behind.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, prev, ec);
    if (ec) {
      throw SnapshotError(SnapshotErrc::io_error,
                          "cannot rotate " + path + " to " + prev + ": " +
                              ec.message());
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw SnapshotError(SnapshotErrc::io_error,
                        "cannot publish " + tmp + " as " + path + ": " +
                            ec.message());
  }
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path,
                                             std::uint32_t expected_kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError(SnapshotErrc::io_error, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw SnapshotError(SnapshotErrc::io_error, "read error on " + path);
  }
  return unframe_snapshot(bytes, expected_kind);
}

std::vector<std::uint8_t> load_snapshot_file(const std::string& path,
                                             std::uint32_t expected_kind,
                                             bool* used_fallback) {
  if (used_fallback != nullptr) *used_fallback = false;
  try {
    return read_snapshot_file(path, expected_kind);
  } catch (const SnapshotError& primary_error) {
    try {
      std::vector<std::uint8_t> payload =
          read_snapshot_file(path + ".prev", expected_kind);
      if (used_fallback != nullptr) *used_fallback = true;
      return payload;
    } catch (const SnapshotError&) {
      throw primary_error;  // the primary's diagnosis is the useful one
    }
  }
}

bool snapshot_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) ||
         std::filesystem::exists(path + ".prev", ec);
}

}  // namespace catsched::core

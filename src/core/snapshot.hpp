#pragma once
/// \file snapshot.hpp
/// \brief Versioned, endian-explicit binary snapshot format used by the
///        search checkpoints (and, per the roadmap, by the future
///        distributed workers as their wire/merge format).
///
/// Framing (all integers little-endian, written byte by byte so the format
/// is identical on any host):
///
///     offset  size  field
///     0       4     magic "CSNP"
///     4       4     format version (u32, currently 1)
///     8       4     payload kind (u32, registry below)
///     12      8     payload length in bytes (u64)
///     20      len   payload (SnapshotWriter-encoded)
///     20+len  8     FNV-1a 64-bit checksum of the payload bytes (u64)
///
/// A reader validates magic, version, kind, length (against the actual
/// file size — catches truncation) and checksum (catches torn or
/// bit-flipped writes) before handing out the payload; every failure is a
/// typed SnapshotError so callers can distinguish "no checkpoint yet"
/// from "checkpoint damaged, fall back".
///
/// Crash consistency: write_snapshot_file stages the new image at
/// `path.tmp`, rotates any existing `path` to `path.prev`, then renames
/// the staged file into place. A crash at any point leaves either the old
/// image at `path`, or the old image at `path.prev` with `path` missing
/// or damaged — load_snapshot_file falls back to `path.prev` whenever
/// `path` is unreadable, so at most the newest checkpoint interval is
/// lost, never the run.
///
/// Scalars: f64 values travel as the IEEE-754 bit pattern (bit_cast to
/// u64), so round-trips are bit-exact — a requirement for the
/// kill-and-resume determinism pin, which compares Pall values by bits.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fault.hpp"

namespace catsched::core {

/// Current framing version. Bump on any payload-incompatible change; the
/// reader rejects other versions (no silent migration).
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Payload-kind registry. Every search checkpoints through the EvalCache
/// journal (opt::encode_evaluation_table), so there is one kind; the
/// reader still rejects a kind mismatch, so a file of any other kind is
/// refused, never misparsed. A table written by a search over another
/// space (periodic vs interleaved points) is refused on resume by the
/// cache's point check, with the same bad_kind code.
inline constexpr std::uint32_t kSnapshotKindEvaluationTable = 1;

/// What exactly a snapshot read rejected.
enum class SnapshotErrc : std::uint8_t {
  io_error,           ///< file missing / unreadable / unwritable
  bad_magic,          ///< not a snapshot file
  bad_version,        ///< written by an incompatible format version
  bad_kind,           ///< valid snapshot, wrong subsystem
  truncated,          ///< file shorter than the declared payload + framing
  checksum_mismatch,  ///< payload bytes damaged (torn or corrupted write)
};

/// Stable short name ("checksum_mismatch", ...) for logs and tests.
const char* to_string(SnapshotErrc code) noexcept;

/// Typed snapshot failure; code() tells callers whether to fall back to
/// the previous checkpoint (anything but io_error on a missing file).
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  SnapshotErrc code() const noexcept { return code_; }

 private:
  SnapshotErrc code_;
};

/// FNV-1a 64-bit over \p n bytes — the framing checksum. Not
/// cryptographic; it detects truncation and accidental corruption, which
/// is the failure model here.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) noexcept;

/// Append-only payload encoder. All multi-byte scalars little-endian.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);  ///< two's-complement via u64
  void put_f64(double v);        ///< IEEE-754 bit pattern, bit-exact
  /// u64 count prefix + elements as i64 (schedule bursts, search points).
  void put_int_vector(const std::vector<int>& v);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload decoder; every underrun throws
/// SnapshotError(truncated) instead of reading garbage.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  std::vector<int> get_int_vector();

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool at_end() const noexcept { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Wrap \p payload in the framing above (magic, version, kind, length,
/// checksum). Pure function of its inputs — same payload, same bytes.
std::vector<std::uint8_t> frame_snapshot(std::uint32_t kind,
                                         const std::vector<std::uint8_t>& payload);

/// Validate framing and return the payload. \p expected_kind 0 accepts any
/// kind (\p kind_out, if non-null, receives the actual one).
/// \throws SnapshotError on any validation failure.
std::vector<std::uint8_t> unframe_snapshot(
    const std::vector<std::uint8_t>& file_bytes, std::uint32_t expected_kind,
    std::uint32_t* kind_out = nullptr);

/// Atomically publish a checkpoint at \p path (stage at path.tmp, rotate
/// the old image to path.prev, rename into place — see file comment).
/// \p fault, when armed, flips a payload byte after checksumming, forging
/// exactly the corruption the loader must catch. \throws SnapshotError
/// (io_error) when the filesystem refuses.
void write_snapshot_file(const std::string& path, std::uint32_t kind,
                         const std::vector<std::uint8_t>& payload,
                         FaultPlan* fault = nullptr);

/// Read and validate one file. \throws SnapshotError.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path,
                                             std::uint32_t expected_kind);

/// Read \p path, falling back to \p path + ".prev" when the primary is
/// missing or damaged; \p used_fallback reports which one served. Throws
/// only when both fail (the primary's error is propagated).
std::vector<std::uint8_t> load_snapshot_file(const std::string& path,
                                             std::uint32_t expected_kind,
                                             bool* used_fallback = nullptr);

/// True when \p path or its .prev fallback exists (cheap resume probe —
/// does not validate contents).
bool snapshot_exists(const std::string& path);

}  // namespace catsched::core

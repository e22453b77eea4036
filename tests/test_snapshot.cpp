// Pins the snapshot format (core/snapshot): scalar round-trips are
// bit-exact, framing survives a write/read cycle, every rejection path
// raises the right typed SnapshotErrc (bad magic / version / kind,
// truncation, checksum), the crash-consistent file rotation keeps a .prev
// image, and load_snapshot_file falls back to it when the primary is
// damaged — the foundation of the kill-and-resume determinism guarantee.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/snapshot.hpp"
#include "opt/discrete_search.hpp"

namespace {

using catsched::core::FaultPlan;
using catsched::core::SnapshotErrc;
using catsched::core::SnapshotError;
using catsched::core::SnapshotReader;
using catsched::core::SnapshotWriter;

/// Unique temp path per test; removed (with .tmp/.prev siblings) on exit.
class TempSnapshotPath {
 public:
  explicit TempSnapshotPath(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("catsched_snap_" + tag + ".bin"))
                  .string()) {
    cleanup();
  }
  ~TempSnapshotPath() { cleanup(); }
  const std::string& str() const { return path_; }

 private:
  void cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
    std::filesystem::remove(path_ + ".prev", ec);
  }
  std::string path_;
};

SnapshotErrc code_of(const std::vector<std::uint8_t>& file_bytes,
                     std::uint32_t expected_kind) {
  try {
    catsched::core::unframe_snapshot(file_bytes, expected_kind);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "unframe_snapshot accepted damaged bytes";
  return SnapshotErrc::io_error;
}

TEST(SnapshotCodec, ScalarsRoundTripBitExact) {
  SnapshotWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  w.put_f64(0.1);
  w.put_f64(-0.0);
  w.put_f64(denorm);
  w.put_f64(nan);
  w.put_string("schedule (2, 3)");
  w.put_int_vector({5, -3, 0, 1 << 20});

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(denorm));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(nan));
  EXPECT_EQ(r.get_string(), "schedule (2, 3)");
  EXPECT_EQ(r.get_int_vector(), (std::vector<int>{5, -3, 0, 1 << 20}));
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotCodec, ReaderUnderrunThrowsTruncated) {
  SnapshotWriter w;
  w.put_u32(7);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 7u);
  try {
    r.get_u64();
    FAIL() << "read past the end succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }
}

TEST(SnapshotCodec, HostileVectorCountRejectedNotAllocated) {
  // A forged u64 count must be caught by the remaining-bytes bound, not
  // turned into a giant allocation or a wrapped size computation.
  SnapshotWriter w;
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  SnapshotReader r(w.bytes());
  try {
    r.get_int_vector();
    FAIL() << "hostile count accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }

  // Same for the evaluation-table entry count (the checkpoint payload): a
  // count far beyond the payload must not reach the table's reserve().
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::numeric_limits<std::uint64_t>::max()}) {
    SnapshotWriter t;
    t.put_u64(count);
    t.put_int_vector({1, 2});
    t.put_f64(0.5);
    t.put_u8(1);
    try {
      catsched::opt::decode_evaluation_table(t.bytes());
      FAIL() << "hostile table count " << count << " accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrc::truncated) << count;
    }
  }
}

TEST(SnapshotFraming, RoundTripPreservesPayloadAndKind) {
  SnapshotWriter w;
  w.put_string("payload");
  w.put_f64(0.25);
  const std::vector<std::uint8_t> payload = w.bytes();
  const auto framed = catsched::core::frame_snapshot(2, payload);
  std::uint32_t kind = 0;
  const auto back = catsched::core::unframe_snapshot(framed, 0, &kind);
  EXPECT_EQ(kind, 2u);
  EXPECT_EQ(back, payload);
}

TEST(SnapshotFraming, RejectionsCarryTypedCodes) {
  SnapshotWriter w;
  w.put_u64(99);
  auto framed = catsched::core::frame_snapshot(1, w.bytes());

  auto bad_magic = framed;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(code_of(bad_magic, 1), SnapshotErrc::bad_magic);

  auto bad_version = framed;
  bad_version[4] ^= 0x01;
  EXPECT_EQ(code_of(bad_version, 1), SnapshotErrc::bad_version);

  // Kind mismatch: a valid snapshot of another kind fed to a resume
  // expecting an evaluation table must be refused, not misparsed.
  EXPECT_EQ(code_of(framed, 3), SnapshotErrc::bad_kind);

  auto truncated = framed;
  truncated.pop_back();
  EXPECT_EQ(code_of(truncated, 1), SnapshotErrc::truncated);

  auto flipped = framed;
  flipped[framed.size() - 9] ^= 0x01;  // last payload byte
  EXPECT_EQ(code_of(flipped, 1), SnapshotErrc::checksum_mismatch);

  const std::vector<std::uint8_t> tiny{'C', 'S', 'N', 'P'};
  EXPECT_EQ(code_of(tiny, 1), SnapshotErrc::truncated);
}

TEST(SnapshotFile, WriteReadRoundTrip) {
  TempSnapshotPath p("roundtrip");
  SnapshotWriter w;
  w.put_int_vector({2, 3});
  w.put_f64(0.7310585786300049);
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());
  ASSERT_TRUE(catsched::core::snapshot_exists(p.str()));
  const auto payload = catsched::core::read_snapshot_file(p.str(), 1);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_int_vector(), (std::vector<int>{2, 3}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(0.7310585786300049));
}

TEST(SnapshotFile, MissingFileIsIoErrorAndNotExists) {
  TempSnapshotPath p("missing");
  EXPECT_FALSE(catsched::core::snapshot_exists(p.str()));
  try {
    catsched::core::read_snapshot_file(p.str(), 1);
    FAIL() << "read of missing file succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::io_error);
  }
}

TEST(SnapshotFile, RotationKeepsPreviousImage) {
  TempSnapshotPath p("rotation");
  SnapshotWriter w1;
  w1.put_u64(1);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());
  EXPECT_FALSE(std::filesystem::exists(p.str() + ".prev"));

  SnapshotWriter w2;
  w2.put_u64(2);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes());

  // Primary carries the new image, .prev the old one, no stray .tmp.
  const auto cur_payload = catsched::core::read_snapshot_file(p.str(), 1);
  SnapshotReader cur(cur_payload);
  EXPECT_EQ(cur.get_u64(), 2u);
  const auto prev_payload =
      catsched::core::read_snapshot_file(p.str() + ".prev", 1);
  SnapshotReader prev(prev_payload);
  EXPECT_EQ(prev.get_u64(), 1u);
  EXPECT_FALSE(std::filesystem::exists(p.str() + ".tmp"));
}

TEST(SnapshotFile, LoadFallsBackToPrevWhenPrimaryCorrupted) {
  TempSnapshotPath p("fallback");
  SnapshotWriter w1;
  w1.put_u64(10);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());

  // Second write with the corruption fault armed: the primary image is
  // damaged exactly as a torn write would leave it, .prev stays intact.
  FaultPlan fault;
  fault.corrupt_snapshot_at = 1;
  SnapshotWriter w2;
  w2.put_u64(20);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes(), &fault);

  try {
    catsched::core::read_snapshot_file(p.str(), 1);
    FAIL() << "corrupted primary accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::checksum_mismatch);
  }

  bool used_fallback = false;
  const auto payload =
      catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
  EXPECT_TRUE(used_fallback);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_u64(), 10u);
}

TEST(SnapshotFile, LoadThrowsPrimaryErrorWhenBothDamaged) {
  TempSnapshotPath p("bothbad");
  SnapshotWriter w;
  w.put_u64(1);
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());
  catsched::core::write_snapshot_file(p.str(), 1, w.bytes());  // creates .prev

  // Truncate both images below the framing minimum.
  std::filesystem::resize_file(p.str(), 4);
  std::filesystem::resize_file(p.str() + ".prev", 4);
  bool used_fallback = true;
  try {
    catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
    FAIL() << "doubly-damaged checkpoint accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::truncated);
  }
}

TEST(SnapshotFile, TruncatedPrimaryFallsBackToPrev) {
  TempSnapshotPath p("truncfall");
  SnapshotWriter w1;
  w1.put_u64(7);
  catsched::core::write_snapshot_file(p.str(), 1, w1.bytes());
  SnapshotWriter w2;
  w2.put_u64(8);
  catsched::core::write_snapshot_file(p.str(), 1, w2.bytes());

  // Simulate a torn write: primary cut mid-payload.
  const auto size = std::filesystem::file_size(p.str());
  std::filesystem::resize_file(p.str(), size / 2);

  bool used_fallback = false;
  const auto payload =
      catsched::core::load_snapshot_file(p.str(), 1, &used_fallback);
  EXPECT_TRUE(used_fallback);
  SnapshotReader r(payload);
  EXPECT_EQ(r.get_u64(), 7u);
}

}  // namespace

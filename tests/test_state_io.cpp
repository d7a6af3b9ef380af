// Tests for the DMPCKPT01 snapshot framing (common/state_io.h): primitive
// round trips, section markers, and — the part the service layer leans on —
// loud rejection of corrupted, truncated and foreign payloads.
#include "dollymp/common/state_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dollymp {
namespace {

struct PodRecord {
  std::int32_t a = 0;
  double b = 0.0;
};

std::vector<std::uint8_t> sample_envelope() {
  StateWriter w;
  w.u8(7);
  w.b(true);
  w.u32(0xDEADBEEFu);
  w.i32(-42);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-1);
  w.f64(3.25);
  w.str("hello snapshot");
  PodRecord rec{9, -2.5};
  w.pod(rec);
  w.pod_vec(std::vector<std::int32_t>{1, 2, 3});
  w.section(0x54455354u);
  return w.finish();
}

TEST(StateIo, PrimitivesRoundTrip) {
  const auto bytes = sample_envelope();
  StateReader r(bytes);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello snapshot");
  PodRecord rec;
  r.pod(rec);
  EXPECT_EQ(rec.a, 9);
  EXPECT_DOUBLE_EQ(rec.b, -2.5);
  std::vector<std::int32_t> v;
  r.pod_vec(v);
  EXPECT_EQ(v, (std::vector<std::int32_t>{1, 2, 3}));
  r.section(0x54455354u);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(StateIo, RejectsBadMagic) {
  auto bytes = sample_envelope();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(
      {
        try {
          StateReader r(bytes);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(StateIo, RejectsPayloadCorruption) {
  auto bytes = sample_envelope();
  // Flip one payload bit (past magic+version+length header).
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(
      {
        try {
          StateReader r(bytes);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

// The envelope must reject any single-bit corruption wherever it lands:
// magic, version, the length field, the payload or the trailing hash.
TEST(StateIo, EverySingleBitFlipIsRejected) {
  const auto bytes = sample_envelope();
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[at] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(StateReader r(flipped), std::runtime_error)
          << "byte " << at << " bit " << bit;
    }
  }
}

// Known answers pin the envelope hash to XXH64 with seed 0: a sealed
// payload's trailer is its hash.  The 62- and 80-byte payloads run the
// 32-byte stripe loop and every tail.
TEST(StateIo, EnvelopeHashIsXxh64) {
  const auto trailer = [](const std::string& payload) {
    StateWriter w;
    w.bytes(payload.data(), payload.size());
    const auto bytes = w.finish();
    std::uint64_t hash = 0;
    std::memcpy(&hash, bytes.data() + bytes.size() - 8, sizeof(hash));
    return hash;
  };
  EXPECT_EQ(trailer(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(trailer("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(trailer("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            0xAAA46907D3047814ULL);
  EXPECT_EQ(trailer("1234567890123456789012345678901234567890"
                    "1234567890123456789012345678901234567890"),
            0xE04A477F19EE145DULL);
}

TEST(StateIo, PayloadsOfEveryLengthUpTo100RoundTrip) {
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::uint8_t> payload(n);
    for (std::size_t i = 0; i < n; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 37 + n);
    }
    StateWriter w;
    w.bytes(payload.data(), payload.size());
    EXPECT_EQ(w.size(), n);
    const auto bytes = w.finish();
    ASSERT_EQ(bytes.size(), kStateHeaderBytes + n + 8);
    StateReader r(bytes);
    std::vector<std::uint8_t> back(n);
    r.bytes(back.data(), n);
    EXPECT_EQ(back, payload) << "length " << n;
    EXPECT_NO_THROW(r.expect_done());
  }
}

TEST(StateIo, RejectsVersionOneEnvelope) {
  // Version-1 to version-4 files: the current layout with an old version
  // number (version 3 dropped two SimCore streaming flags, version 4 moved
  // machine events into their own queue, version 5 dropped the server model
  // labels and the recycled-id channel and keys DollyMP's priorities by job
  // slot).
  for (const std::uint32_t version : {1u, 2u, 3u, 4u}) {
    auto bytes = sample_envelope();
    std::memcpy(bytes.data() + 9, &version, sizeof(version));
    try {
      StateReader r(bytes);
      ADD_FAILURE() << "version-" << version << " envelope accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported DMPCKPT01 version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(StateIo, CountRejectsMoreRecordsThanBytesLeftNamingTheField) {
  StateWriter w;
  w.u64(3);  // three 4-byte records ...
  w.u32(1);
  w.u32(2);  // ... but only two present
  const auto bytes = w.finish();
  StateReader r(bytes);
  try {
    (void)r.count("widget", 4);
    FAIL() << "count accepted more records than bytes left";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("widget count 3"), std::string::npos)
        << e.what();
  }
  StateReader ok(bytes);
  EXPECT_EQ(ok.count("widget", 2), 3u);  // three 2-byte records fit in the 8 bytes left
}

TEST(StateIo, RejectsTruncation) {
  auto bytes = sample_envelope();
  bytes.resize(bytes.size() - 9);
  EXPECT_THROW(StateReader r(bytes), std::runtime_error);
}

TEST(StateIo, RejectsEmptyBuffer) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(StateReader r(empty), std::runtime_error);
}

TEST(StateIo, SectionMismatchThrows) {
  StateWriter w;
  w.section(0x41414141u);
  const auto bytes = w.finish();
  StateReader r(bytes);
  EXPECT_THROW(r.section(0x42424242u), std::runtime_error);
}

TEST(StateIo, PodSizeDriftThrows) {
  StateWriter w;
  w.pod(std::int32_t{5});
  const auto bytes = w.finish();
  StateReader r(bytes);
  std::int64_t wrong = 0;
  EXPECT_THROW(r.pod(wrong), std::runtime_error);
}

TEST(StateIo, ReadPastEndThrows) {
  StateWriter w;
  w.u32(1);
  const auto bytes = w.finish();
  StateReader r(bytes);
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), std::runtime_error);
}

TEST(StateIo, PodVecRejectsCountThatWrapsTheSizeCheck) {
  // 16-byte records: n * 16 wraps to 0 for n = 2^60 and to 16 for
  // n = 2^60 + 1, which the 16 trailing bytes would satisfy.  The envelope
  // hash is valid, so only the count bound can reject these.
  struct Record16 {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  static_assert(sizeof(Record16) == 16);
  for (const std::uint64_t n : {std::uint64_t{1} << 60, (std::uint64_t{1} << 60) + 1}) {
    StateWriter w;
    w.u32(sizeof(Record16));
    w.u64(n);
    const Record16 record{};
    w.bytes(&record, sizeof(record));
    const auto bytes = w.finish();
    StateReader r(bytes);
    std::vector<Record16> v;
    EXPECT_THROW(r.pod_vec(v), std::runtime_error) << "n = " << n;
    EXPECT_TRUE(v.empty());
  }
}

TEST(StateIo, ExpectDoneThrowsOnTrailingBytes) {
  StateWriter w;
  w.u32(1);
  w.u32(2);
  const auto bytes = w.finish();
  StateReader r(bytes);
  (void)r.u32();
  EXPECT_THROW(r.expect_done(), std::runtime_error);
}

TEST(StateIo, ReserveAndPatchLengthSlot) {
  StateWriter w;
  const std::size_t at = w.reserve_u64();
  const std::size_t before = w.size();
  w.str("nested blob");
  w.patch_u64(at, w.size() - before);
  const auto bytes = w.finish();
  StateReader r(bytes);
  const std::uint64_t len = r.u64();
  EXPECT_EQ(len, r.remaining());
  r.skip(static_cast<std::size_t>(len));
  EXPECT_NO_THROW(r.expect_done());
}

TEST(StateIo, FileRoundTripAndIoErrors) {
  const std::string path = testing::TempDir() + "/dollymp_state_io_test.ckpt";
  const auto bytes = sample_envelope();
  write_state_file(path, bytes);
  EXPECT_EQ(read_state_file(path), bytes);
  EXPECT_THROW((void)read_state_file(path + ".does-not-exist"), std::runtime_error);
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Every possible torn write of a snapshot — the file cut at each byte
// boundary — must be rejected by the envelope check, never half-accepted.
// This is the property the crash-recovery path stands on.
TEST(StateIo, TruncationAtEveryByteIsRejected) {
  const auto bytes = sample_envelope();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> torn(bytes.begin(),
                                   bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(StateReader r(torn), std::runtime_error) << "cut at byte " << cut;
  }
  // And the untouched envelope still parses, so the loop above is not
  // passing vacuously.
  EXPECT_NO_THROW(StateReader r(bytes));
}

TEST(StateIo, AtomicWriteLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "/dollymp_atomic_test.ckpt";
  write_state_file(path, sample_envelope());
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Overwrite goes through the same temp+rename; the old complete file is
  // only ever replaced by the new complete file.
  StateWriter w;
  w.u32(99);
  write_state_file(path, w.finish());
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const std::vector<std::uint8_t> bytes = read_state_file(path);
  StateReader r(bytes);
  EXPECT_EQ(r.u32(), 99u);
  std::remove(path.c_str());
}

TEST(StateIo, WriteFailureCarriesErrnoText) {
  const std::string path =
      testing::TempDir() + "/dollymp_no_such_dir_xyzzy/nested.ckpt";
  try {
    write_state_file(path, sample_envelope());
    FAIL() << "write into a missing directory should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    // The message must carry the OS's explanation (strerror), not just
    // "failed" — "No such file or directory" on POSIX.
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(StateIo, RotationKeepsTwoGenerationsAndPicksLatest) {
  const std::string base = testing::TempDir() + "/dollymp_rotation_a";
  SnapshotRotation rotation(base);
  EXPECT_EQ(rotation.newest_valid(), "");  // nothing written yet

  StateWriter w1;
  w1.u32(1);
  rotation.write(w1.finish());
  EXPECT_EQ(rotation.newest_valid(), rotation.latest_path());

  StateWriter w2;
  w2.u32(2);
  rotation.write(w2.finish());
  const std::vector<std::uint8_t> latest_bytes = read_state_file(rotation.latest_path());
  StateReader latest(latest_bytes);
  EXPECT_EQ(latest.u32(), 2u);
  const std::vector<std::uint8_t> prev_bytes = read_state_file(rotation.previous_path());
  StateReader prev(prev_bytes);
  EXPECT_EQ(prev.u32(), 1u);
  EXPECT_EQ(rotation.newest_valid(), rotation.latest_path());
  EXPECT_EQ(rotation.quarantined_count(), 0);

  std::remove(rotation.latest_path().c_str());
  std::remove(rotation.previous_path().c_str());
}

TEST(StateIo, RotationQuarantinesCorruptLatestAndFallsBack) {
  const std::string base = testing::TempDir() + "/dollymp_rotation_b";
  SnapshotRotation rotation(base);
  StateWriter w1;
  w1.u32(1);
  rotation.write(w1.finish());
  StateWriter w2;
  w2.u32(2);
  rotation.write(w2.finish());

  // Corrupt the newest generation in place (payload bit flip).
  auto corrupt = read_state_file(rotation.latest_path());
  corrupt[corrupt.size() / 2] ^= 0x01;
  write_raw(rotation.latest_path(), corrupt);

  // Recovery walks past it to the previous generation and moves the bad
  // file out of the rotation under a quarantine name.
  EXPECT_EQ(rotation.newest_valid(), rotation.previous_path());
  EXPECT_EQ(rotation.quarantined_count(), 1);
  const std::string jail = rotation.latest_path() + ".quarantined.0";
  EXPECT_TRUE(file_exists(jail));
  EXPECT_FALSE(file_exists(rotation.latest_path()));
  EXPECT_TRUE(SnapshotRotation::is_quarantined_path(jail));
  EXPECT_FALSE(SnapshotRotation::is_quarantined_path(rotation.latest_path()));

  // A second corruption of the same generation gets a fresh jail name —
  // forensic evidence is never overwritten.
  write_raw(rotation.latest_path(), corrupt);
  EXPECT_EQ(rotation.newest_valid(), rotation.previous_path());
  EXPECT_TRUE(file_exists(rotation.latest_path() + ".quarantined.1"));

  std::remove(rotation.previous_path().c_str());
  std::remove(jail.c_str());
  std::remove((rotation.latest_path() + ".quarantined.1").c_str());
}

TEST(StateIo, RotationWithBothGenerationsCorruptReportsNone) {
  const std::string base = testing::TempDir() + "/dollymp_rotation_c";
  SnapshotRotation rotation(base);
  StateWriter w1;
  w1.u32(1);
  rotation.write(w1.finish());
  StateWriter w2;
  w2.u32(2);
  rotation.write(w2.finish());

  for (const std::string& path :
       {rotation.latest_path(), rotation.previous_path()}) {
    auto corrupt = read_state_file(path);
    corrupt[corrupt.size() / 2] ^= 0x01;
    write_raw(path, corrupt);
  }
  EXPECT_EQ(rotation.newest_valid(), "");
  EXPECT_EQ(rotation.quarantined_count(), 2);

  std::remove((rotation.latest_path() + ".quarantined.0").c_str());
  std::remove((rotation.previous_path() + ".quarantined.0").c_str());
}

TEST(StateIo, RotationRejectsEmptyBasePath) {
  EXPECT_THROW(SnapshotRotation rotation(""), std::invalid_argument);
}

}  // namespace
}  // namespace dollymp

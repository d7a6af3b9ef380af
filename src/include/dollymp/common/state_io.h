// Binary state serialization for checkpoint/restore (the DMPCKPT01 format).
//
// A checkpoint must be *verifiable*: the restored simulation's
// flight-recorder stream hash has to equal the uninterrupted run's, so a
// snapshot that silently drops or reorders a field is worse than one that
// fails loudly.  StateWriter/StateReader therefore wrap every payload in a
// framed envelope — a 9-byte magic ("DMPCKPT01"), a format version (3), the
// payload length, and a trailing XXH64 hash (seed 0) over the payload — and
// the reader rejects truncation, trailing garbage, bit corruption and
// foreign files with a std::runtime_error naming what went wrong.  The hash
// detects corruption, not crafted payloads: a payload sealed by a hostile
// writer passes the envelope, so every decoder bounds its counts by the
// bytes left (StateReader::count) and range-checks the indices it restores.
//
// Inside the envelope the encoding is deliberately dumb: little-endian
// fixed-width integers, IEEE doubles by bit pattern, length-prefixed
// strings and vectors, and u32 section tags (fourcc-style) sprinkled
// between subsystems so a reader that drifts out of sync fails at the next
// tag instead of misinterpreting the rest of the stream.  The writer fills
// one buffer that already holds the header slot, so sealing it writes the
// header and appends the hash without copying the payload.  Snapshots are
// exchanged between process images of the same build (the service
// checkpoints to disk and restores later, possibly in a fresh process), not
// across architectures.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dollymp {

/// 64-bit FNV-1a offset basis and prime.  The envelope hashes with XXH64;
/// these stay because perfbench/src/e2e.cpp folds its decision digest with
/// them.
inline constexpr std::uint64_t kStateHashSeed = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kStateHashPrime = 0x100000001b3ULL;

/// The 9-byte format magic + current version.
inline constexpr char kStateMagic[] = "DMPCKPT01";  // 9 chars + NUL
inline constexpr std::uint32_t kStateVersion = 3;
/// Envelope header: magic, u32 version, u64 payload length.
inline constexpr std::size_t kStateHeaderBytes = 9 + 4 + 8;

// Fixed-width fields are copied in native byte order, which is the
// little-endian on-disk encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "DMPCKPT01 fields are memcpy'd little-endian");

class StateWriter {
 public:
  /// The buffer starts with the envelope header's slot (finish() fills it)
  /// and room for a small payload.
  StateWriter() {
    buf_.reserve(256);
    buf_.resize(kStateHeaderBytes);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    static_assert(sizeof(v) == sizeof(std::uint64_t));
    bytes(&v, sizeof(v));
  }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Trivially-copyable record by raw bytes (same-build snapshots only; the
  /// sizeof is part of the stream so a layout drift fails loudly on read).
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u32(static_cast<std::uint32_t>(sizeof(T)));
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u32(static_cast<std::uint32_t>(sizeof(T)));
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  /// Subsystem boundary marker (fourcc), checked by StateReader::section.
  void section(std::uint32_t tag) { u32(0x5EC70000u ^ tag); }

  /// Room for `payload_bytes` more payload bytes plus the trailing hash, so
  /// a writer that knows its size up front grows the buffer once.
  void reserve(std::size_t payload_bytes) {
    buf_.reserve(buf_.size() + payload_bytes + sizeof(std::uint64_t));
  }
  /// Reserve an 8-byte length slot (nested blobs a reader may skip);
  /// returns its payload offset for patch_u64.
  [[nodiscard]] std::size_t reserve_u64() {
    const std::size_t at = size();
    u64(0);
    return at;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(buf_.data() + kStateHeaderBytes + at, &v, sizeof(v));
  }
  /// Payload bytes written so far.
  [[nodiscard]] std::size_t size() const { return buf_.size() - kStateHeaderBytes; }

  /// Seal the payload into the framed envelope (magic, version, length,
  /// payload, XXH64 hash) and hand the buffer over without copying it.
  /// The writer is consumed: it starts over with an empty payload.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buf_;
};

class StateReader {
 public:
  /// Validate the envelope (magic, version, length, payload hash) and
  /// position the cursor at the payload start.  Throws std::runtime_error
  /// on a foreign, truncated or corrupted snapshot.  The buffer must
  /// outlive the reader.
  StateReader(const std::uint8_t* data, std::size_t size);
  explicit StateReader(const std::vector<std::uint8_t>& data)
      : StateReader(data.data(), data.size()) {}
  /// A temporary buffer would be destroyed while the reader still points
  /// into it: hold the bytes in a named variable instead.
  explicit StateReader(std::vector<std::uint8_t>&&) = delete;

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    double v = 0.0;
    bytes(&v, sizeof(v));
    return v;
  }
  void bytes(void* out, std::size_t n) {
    need(n);
    // An empty vector's data() may be null, and memcpy(nullptr, _, 0) is
    // undefined behaviour.
    if (n != 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] std::string str();
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_record_size(u32(), sizeof(T));
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void pod_vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_record_size(u32(), sizeof(T));
    const std::size_t n = count("vector", sizeof(T));
    v.resize(n);
    bytes(v.data(), n * sizeof(T));
  }
  /// Read a u64 record count and bound it before anything is allocated:
  /// each record takes at least `min_record_bytes` (> 0) of the payload, so
  /// a count above remaining() / min_record_bytes cannot be genuine.  The
  /// division also keeps a crafted count from wrapping count * size past
  /// the overrun check.  Throws std::runtime_error naming `field`.
  [[nodiscard]] std::size_t count(const char* field, std::size_t min_record_bytes);
  /// Consume a section marker; throws naming the tag on mismatch.
  void section(std::uint32_t tag);
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }
  /// End-of-payload check for callers that want to assert full consumption.
  void expect_done() const;

 private:
  void need(std::size_t n) const {
    if (end_ - pos_ < n) overrun();
  }
  [[noreturn]] static void overrun();
  static void check_record_size(std::uint32_t stored, std::size_t expected);

  const std::uint8_t* data_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Whole-file helpers for checkpoint artifacts.  write_state_file is
/// atomic: the bytes land in `path + ".tmp"`, are flushed and fsync'd, and
/// the temp file is renamed over the target, so a crash at any instant
/// leaves either the old complete file or the new complete file — never a
/// torn one.  Every failure (open, short write from a full disk, fsync,
/// rename) throws std::runtime_error carrying the errno text.
/// read_state_file throws std::runtime_error on I/O failure.
void write_state_file(const std::string& path, const std::vector<std::uint8_t>& bytes);
[[nodiscard]] std::vector<std::uint8_t> read_state_file(const std::string& path);

/// Last-good/previous snapshot rotation for crash-safe supervised recovery.
///
/// write() publishes bytes as `<base>.latest` (atomically, via
/// write_state_file) after demoting the previous latest to `<base>.prev`,
/// so at any instant at most one complete older snapshot plus one complete
/// newer snapshot exist on disk.  newest_valid() walks latest-then-prev,
/// validates each candidate's DMPCKPT01 envelope, quarantines a corrupted
/// file out of the way (renamed to `<file>.quarantined.N` so it is kept for
/// forensics but never re-picked) and returns the path of the newest
/// snapshot that verifies — the supervisor's automatic fallback.
class SnapshotRotation {
 public:
  explicit SnapshotRotation(std::string base_path);

  /// Publish `bytes` as the new latest snapshot; the previous latest (if
  /// any) becomes the previous-generation fallback.
  void write(const std::vector<std::uint8_t>& bytes);

  /// Path of the newest snapshot whose envelope validates, or "" when none
  /// survives.  Corrupted candidates are quarantined as a side effect.
  [[nodiscard]] std::string newest_valid();

  [[nodiscard]] std::string latest_path() const { return base_ + ".latest"; }
  [[nodiscard]] std::string previous_path() const { return base_ + ".prev"; }
  /// True when `path` names a quarantined snapshot (never load these).
  [[nodiscard]] static bool is_quarantined_path(const std::string& path);
  /// Corrupted snapshots moved aside by newest_valid() on this instance.
  [[nodiscard]] int quarantined_count() const { return quarantined_; }

 private:
  std::string base_;
  int quarantined_ = 0;
};

}  // namespace dollymp

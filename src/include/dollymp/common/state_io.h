// Binary state serialization for checkpoint/restore (the DMPCKPT01 format).
//
// A checkpoint must be *verifiable*: the restored simulation's
// flight-recorder stream hash has to equal the uninterrupted run's, so a
// snapshot that silently drops or reorders a field is worse than one that
// fails loudly.  StateWriter/StateReader therefore wrap every payload in a
// framed envelope — a 9-byte magic ("DMPCKPT01"), a format version, the
// payload length, and a trailing 64-bit FNV-1a hash over the payload — and
// the reader rejects truncation, trailing garbage, bit corruption and
// foreign files with a std::runtime_error naming what went wrong.
//
// Inside the envelope the encoding is deliberately dumb: little-endian
// fixed-width integers, IEEE doubles by bit pattern, length-prefixed
// strings and vectors, and u32 section tags (fourcc-style) sprinkled
// between subsystems so a reader that drifts out of sync fails at the next
// tag instead of misinterpreting the rest of the stream.  Snapshots are
// exchanged between process images of the same build (the service
// checkpoints to disk and restores later, possibly in a fresh process), not
// across architectures.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dollymp {

/// Seed/prime of the envelope's FNV-1a payload hash.
inline constexpr std::uint64_t kStateHashSeed = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kStateHashPrime = 0x100000001b3ULL;

/// The 9-byte format magic + current version.
inline constexpr char kStateMagic[] = "DMPCKPT01";  // 9 chars + NUL
inline constexpr std::uint32_t kStateVersion = 1;

class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
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

  /// Reserve an 8-byte length slot (nested blobs a reader may skip);
  /// returns its position for patch_u64.
  [[nodiscard]] std::size_t reserve_u64() {
    const std::size_t at = buf_.size();
    u64(0);
    return at;
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Seal the payload into the framed envelope (magic, version, length,
  /// payload, FNV-1a hash).  The writer is consumed.
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
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
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
    const std::uint64_t n = u64();
    // Bound the count before multiplying: a crafted n could wrap
    // n * sizeof(T) past the overrun check.
    if (n > remaining() / sizeof(T)) {
      throw std::runtime_error("snapshot: vector length overruns the envelope");
    }
    v.resize(n);
    bytes(v.data(), n * sizeof(T));
  }
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
  void need(std::size_t n) const;
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

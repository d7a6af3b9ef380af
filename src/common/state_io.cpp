#include "dollymp/common/state_io.h"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace dollymp {

namespace {

constexpr std::size_t kMagicLen = 9;  // "DMPCKPT01" without the NUL

// XXH64 primes (doc/xxhash_spec.md).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
[[nodiscard]] T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

[[nodiscard]] std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t lane_acc) {
  acc ^= xxh_round(0, lane_acc);
  return acc * kPrime1 + kPrime4;
}

/// XXH64 with seed 0 (github.com/Cyan4973/xxHash, doc/xxhash_spec.md): the
/// envelope's payload hash, eight bytes per step over four lanes.
[[nodiscard]] std::uint64_t xxh64(const std::uint8_t* data, std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t acc = 0;
  if (n >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (const std::uint8_t* limit = end - 32; p <= limit; p += 32) {
      v1 = xxh_round(v1, load<std::uint64_t>(p));
      v2 = xxh_round(v2, load<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, load<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, load<std::uint64_t>(p + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    acc = xxh_merge(acc, v1);
    acc = xxh_merge(acc, v2);
    acc = xxh_merge(acc, v3);
    acc = xxh_merge(acc, v4);
  } else {
    acc = kPrime5;
  }
  acc += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    acc ^= xxh_round(0, load<std::uint64_t>(p));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= static_cast<std::uint64_t>(load<std::uint32_t>(p)) * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= static_cast<std::uint64_t>(*p) * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace

std::vector<std::uint8_t> StateWriter::finish() {
  const std::uint64_t payload = size();
  std::uint8_t* header = buf_.data();
  std::memcpy(header, kStateMagic, kMagicLen);
  std::memcpy(header + kMagicLen, &kStateVersion, sizeof(kStateVersion));
  std::memcpy(header + kMagicLen + sizeof(kStateVersion), &payload, sizeof(payload));
  u64(xxh64(buf_.data() + kStateHeaderBytes, payload));
  std::vector<std::uint8_t> sealed = std::move(buf_);
  *this = StateWriter();
  return sealed;
}

StateReader::StateReader(const std::uint8_t* data, std::size_t size) : data_(data) {
  if (size < kStateHeaderBytes + 8) {
    throw std::runtime_error("snapshot: truncated (shorter than the DMPCKPT01 envelope)");
  }
  if (std::memcmp(data, kStateMagic, kMagicLen) != 0) {
    throw std::runtime_error("snapshot: bad magic (not a DMPCKPT01 snapshot)");
  }
  const auto version = load<std::uint32_t>(data + kMagicLen);
  if (version != kStateVersion) {
    throw std::runtime_error("snapshot: unsupported DMPCKPT01 version " +
                             std::to_string(version));
  }
  const auto payload = load<std::uint64_t>(data + kMagicLen + 4);
  // Compared without adding to `payload`, which a corrupted length could wrap.
  if (payload != size - kStateHeaderBytes - 8) {
    throw std::runtime_error("snapshot: truncated or trailing bytes (payload length " +
                             std::to_string(payload) + " does not match file size " +
                             std::to_string(size) + ")");
  }
  const auto stored = load<std::uint64_t>(data + kStateHeaderBytes + payload);
  if (stored != xxh64(data + kStateHeaderBytes, payload)) {
    throw std::runtime_error("snapshot: payload hash mismatch (corrupted snapshot)");
  }
  pos_ = kStateHeaderBytes;
  end_ = kStateHeaderBytes + payload;
}

std::size_t StateReader::count(const char* field, std::size_t min_record_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_record_bytes) {
    throw std::runtime_error("snapshot: " + std::string(field) + " count " +
                             std::to_string(n) + " overruns the envelope (" +
                             std::to_string(remaining()) + " bytes left)");
  }
  return static_cast<std::size_t>(n);
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void StateReader::section(std::uint32_t tag) {
  const std::uint32_t got = u32();
  if (got != (0x5EC70000u ^ tag)) {
    throw std::runtime_error("snapshot: expected section tag " + std::to_string(tag) +
                             ", stream is out of sync");
  }
}

void StateReader::expect_done() const {
  if (pos_ != end_) {
    throw std::runtime_error("snapshot: " + std::to_string(end_ - pos_) +
                             " unread payload byte(s) after the last field");
  }
}

void StateReader::overrun() {
  throw std::runtime_error("snapshot: truncated payload (field overruns the envelope)");
}

void StateReader::check_record_size(std::uint32_t stored, std::size_t expected) {
  if (stored != expected) {
    throw std::runtime_error("snapshot: record size " + std::to_string(stored) +
                             " does not match this build's layout (" +
                             std::to_string(expected) + ")");
  }
}

namespace {

/// The current errno rendered for an exception message ("No space left on
/// device" and friends) — captured immediately, before cleanup syscalls can
/// clobber it.
[[nodiscard]] std::string errno_text() {
  const int err = errno;
  return err != 0 ? std::string(std::strerror(err)) : std::string("unknown error");
}

/// Durability barrier on a stdio stream: flush userspace buffers, then ask
/// the kernel to push the file to stable storage.  Both failures matter for
/// a checkpoint — a short fflush is how a full disk usually surfaces.
void flush_and_sync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    const std::string why = errno_text();
    std::fclose(f);
    throw std::runtime_error("snapshot: short write to " + path +
                             " (disk full?): " + why);
  }
#if defined(_WIN32)
  if (_commit(_fileno(f)) != 0) {
#else
  if (fsync(fileno(f)) != 0) {
#endif
    const std::string why = errno_text();
    std::fclose(f);
    throw std::runtime_error("snapshot: fsync of " + path + " failed: " + why);
  }
}

}  // namespace

void write_state_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // Atomic publish: write the bytes to a sibling temp file, fsync, then
  // rename over the target.  A crash (or SIGKILL) at any instant leaves
  // either the previous complete file or the new complete file — the
  // supervisor's recovery path depends on never seeing a torn snapshot.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("snapshot: cannot open " + tmp +
                             " for write: " + errno_text());
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (written != bytes.size()) {
    const std::string why = errno_text();
    std::fclose(f);
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: short write to " + tmp + " (" +
                             std::to_string(written) + " of " +
                             std::to_string(bytes.size()) +
                             " bytes, disk full?): " + why);
  }
  flush_and_sync(f, tmp);
  if (std::fclose(f) != 0) {
    const std::string why = errno_text();
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: close of " + tmp + " failed: " + why);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: rename " + tmp + " -> " + path +
                             " failed: " + why);
  }
}

std::vector<std::uint8_t> read_state_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("snapshot: cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) throw std::runtime_error("snapshot: short read from " + path);
  return bytes;
}

SnapshotRotation::SnapshotRotation(std::string base_path) : base_(std::move(base_path)) {
  if (base_.empty()) {
    throw std::invalid_argument("SnapshotRotation: empty base path");
  }
}

void SnapshotRotation::write(const std::vector<std::uint8_t>& bytes) {
  // Stage the new snapshot as a complete sibling file first, then demote
  // the current latest and promote the stage — two renames, each atomic.
  // The worst crash window (after the demote, before the promote) leaves no
  // `.latest` but a complete `.prev`, which newest_valid() falls back to.
  const std::string staging = base_ + ".staging";
  write_state_file(staging, bytes);
  // ENOENT is fine on the first write; any other rename failure is real.
  if (std::rename(latest_path().c_str(), previous_path().c_str()) != 0 &&
      errno != ENOENT) {
    throw std::runtime_error("snapshot: rotate " + latest_path() + " -> " +
                             previous_path() + " failed: " + errno_text());
  }
  if (std::rename(staging.c_str(), latest_path().c_str()) != 0) {
    throw std::runtime_error("snapshot: publish " + staging + " -> " +
                             latest_path() + " failed: " + errno_text());
  }
}

std::string SnapshotRotation::newest_valid() {
  for (const std::string& candidate : {latest_path(), previous_path()}) {
    std::FILE* probe = std::fopen(candidate.c_str(), "rb");
    if (probe == nullptr) continue;  // generation not written yet
    std::fclose(probe);
    try {
      const std::vector<std::uint8_t> bytes = read_state_file(candidate);
      StateReader r(bytes);  // envelope check: magic, version, length, hash
      return candidate;
    } catch (const std::runtime_error&) {
      // Corrupted: move it out of the rotation under a fresh quarantine
      // name (kept for forensics, never re-picked) and fall through to the
      // older generation.
      for (int n = 0;; ++n) {
        const std::string jail = candidate + ".quarantined." + std::to_string(n);
        std::FILE* taken = std::fopen(jail.c_str(), "rb");
        if (taken != nullptr) {
          std::fclose(taken);
          continue;
        }
        if (std::rename(candidate.c_str(), jail.c_str()) != 0) {
          throw std::runtime_error("snapshot: quarantine " + candidate + " -> " +
                                   jail + " failed: " + errno_text());
        }
        break;
      }
      ++quarantined_;
    }
  }
  return "";
}

bool SnapshotRotation::is_quarantined_path(const std::string& path) {
  return path.find(".quarantined.") != std::string::npos;
}

}  // namespace dollymp

#include "dollymp/obs/recorder.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace dollymp {

std::vector<TraceRecord> Recorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(buffer_.size());
  if (capacity_ == 0 || buffer_.size() < capacity_) {
    out = buffer_;
  } else {
    out.insert(out.end(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
               buffer_.end());
    out.insert(out.end(), buffer_.begin(),
               buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

void Recorder::dump(std::ostream& os) const {
  const auto records = snapshot();
  if (evictions_ > 0) {
    os << "... " << evictions_ << " older record(s) evicted ...\n";
  }
  for (const auto& r : records) os << decode(r) << '\n';
}

namespace {

constexpr char kMagic[8] = {'D', 'M', 'P', 'T', 'R', 'C', '0', '2'};

// Field-by-field packing: the in-memory struct has padding, so raw memcpy
// of the whole struct would serialize (and hash) indeterminate bytes.
template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T take(const char*& p, const char* end) {
  if (p + sizeof(T) > end) throw std::runtime_error("trace log: truncated record");
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

}  // namespace

void save_log(const std::string& path, const std::vector<TraceRecord>& records,
              double slot_seconds) {
  std::string blob;
  blob.reserve(sizeof(kMagic) + 24 + records.size() * kTraceRecordWireBytes);
  blob.append(kMagic, sizeof(kMagic));
  put(blob, slot_seconds);
  put(blob, std::int64_t{1});  // the former thread-count field
  put(blob, static_cast<std::uint64_t>(records.size()));
  for (const auto& r : records) {
    put(blob, r.seq);
    put(blob, static_cast<std::int64_t>(r.slot));
    put(blob, static_cast<std::uint8_t>(r.type));
    put(blob, r.job);
    put(blob, r.phase);
    put(blob, r.task);
    put(blob, r.copy);
    put(blob, r.server);
    put(blob, r.aux);
    put(blob, r.score);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(blob.data(), static_cast<std::streamsize>(blob.size()))) {
    throw std::runtime_error("save_log: cannot write " + path);
  }
}

TraceLog load_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_log: cannot open " + path);
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const char* p = blob.data();
  const char* end = p + blob.size();
  if (blob.size() < sizeof(kMagic) || std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_log: " + path + " is not a dollymp trace log");
  }
  p += sizeof(kMagic);
  TraceLog log;
  log.slot_seconds = take<double>(p, end);
  (void)take<std::int64_t>(p, end);  // the former thread-count field
  const auto count = take<std::uint64_t>(p, end);
  // Compare by division: a crafted count could wrap
  // count * kTraceRecordWireBytes past a multiplied check.
  const auto remaining = static_cast<std::uint64_t>(end - p);
  if (remaining % kTraceRecordWireBytes != 0 ||
      count != remaining / kTraceRecordWireBytes) {
    throw std::runtime_error("load_log: " + path + " has a corrupt record section");
  }
  log.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.seq = take<std::uint64_t>(p, end);
    r.slot = take<std::int64_t>(p, end);
    r.type = static_cast<TraceEv>(take<std::uint8_t>(p, end));
    r.job = take<JobId>(p, end);
    r.phase = take<PhaseIndex>(p, end);
    r.task = take<std::int32_t>(p, end);
    r.copy = take<std::int32_t>(p, end);
    r.server = take<std::int32_t>(p, end);
    r.aux = take<std::int64_t>(p, end);
    r.score = take<double>(p, end);
    log.records.push_back(r);
  }
  return log;
}

}  // namespace dollymp

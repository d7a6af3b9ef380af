// Fixed-seed mutation fuzz for the two file decoders that read what a user
// hands the tools: the trace CSV reader (trace_from_csv, behind
// `dollymp_sim --trace FILE`) and the binary flight-recorder log
// (load_log, behind `--verify-log FILE`).  Each starts from a valid
// encoding — trace_to_csv of a TraceModel sample, save_log of a real run —
// and feeds thousands of deterministic mutations to the decoder.  Every
// case must return or throw one of the decoder's documented types
// (std::runtime_error, std::invalid_argument, std::out_of_range); a crash,
// a sanitizer report or any other exception fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/trace_io.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

struct FuzzTally {
  int loaded = 0;
  int rejected = 0;
  std::vector<std::string> escaped;  ///< anything but the documented types
};

/// Run `decode` on each of `cases` mutations and sort the outcomes.
template <typename Mutate, typename Decode>
FuzzTally fuzz(int cases, std::uint64_t seed, Mutate&& mutate, Decode&& decode) {
  Rng rng(seed);
  FuzzTally tally;
  for (int i = 0; i < cases; ++i) {
    try {
      decode(mutate(rng));
      ++tally.loaded;
    } catch (const std::runtime_error&) {
      ++tally.rejected;
    } catch (const std::invalid_argument&) {
      ++tally.rejected;
    } catch (const std::out_of_range&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      tally.escaped.push_back("case " + std::to_string(i) + ": " + e.what());
    }
  }
  return tally;
}

void expect_no_escapes(const FuzzTally& tally) {
  EXPECT_TRUE(tally.escaped.empty())
      << tally.escaped.size() << " escaped, first: " << tally.escaped.front();
  // Not vacuous: some mutations keep the input valid, most break it.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.rejected, 0);
}

// ---- trace CSV --------------------------------------------------------------

/// Cell values at the edges of every numeric field's range.
const char* const kBoundaryCells[] = {
    "-1",   "0",   "2147483647", "2147483648", "4294967297", "-4294967297",
    "9223372036854775808",       "1e308",      "-0",         "nan",
    "inf",  "",    "x",          "1;1",        "0;0",        "\""};

/// Every row of the job in data row `row` renumbered to `id`: the job stays
/// whole, so only the id check can reject it.
std::string renumber_job(const std::string& text, std::size_t row, const std::string& id) {
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  const std::string& pick = lines[1 + row % (lines.size() - 1)];
  const std::string prefix = pick.substr(0, pick.find(',') + 1);  // "<job_id>,"
  std::string out;
  for (const std::string& line : lines) {
    out += line.rfind(prefix, 0) == 0 ? id + line.substr(prefix.size() - 1) : line;
    out += '\n';
  }
  return out;
}

/// One deterministic mutation of a CSV text: a bit flip, one cell replaced
/// with a boundary value, a truncation, a splice, a duplicated row, or one
/// job renumbered to a boundary id.
std::string mutate_csv(const std::string& text, Rng& rng) {
  std::string m = text;
  switch (rng.below(6)) {
    case 0:
      m[rng.below(m.size())] ^= static_cast<char>(1u << rng.below(7));
      break;
    case 1: {
      // The cell that holds a random character, bounded by ',' or '\n'.
      const std::size_t at = rng.below(m.size());
      std::size_t begin = at;
      while (begin > 0 && m[begin - 1] != ',' && m[begin - 1] != '\n') --begin;
      std::size_t end = at;
      while (end < m.size() && m[end] != ',' && m[end] != '\n') ++end;
      m.replace(begin, end - begin, kBoundaryCells[rng.below(std::size(kBoundaryCells))]);
      break;
    }
    case 2:
      m.resize(rng.below(m.size()));
      break;
    case 3: {
      const std::size_t cut = rng.below(m.size());
      const std::size_t from = rng.below(text.size());
      m.resize(cut);
      m.append(text, from);
      break;
    }
    case 4:
      m = renumber_job(text, rng.below(text.size()), kBoundaryCells[rng.below(7)]);
      break;
    default: {
      const std::size_t at = m.find('\n', rng.below(m.size()));
      if (at == std::string::npos || at + 1 >= m.size()) break;
      const std::size_t next = m.find('\n', at + 1);
      if (next == std::string::npos) break;
      m.insert(next + 1, m.substr(at + 1, next - at));
      break;
    }
  }
  return m;
}

TEST(TraceCsvFuzz, MutationsLoadOrThrowDocumentedErrors) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 20;
  const std::string csv = trace_to_csv(TraceModel(config, 11).sample_jobs(12));
  ASSERT_FALSE(trace_from_csv(csv).empty());  // the unmutated trace loads
  int negative_ids = 0;
  const FuzzTally tally = fuzz(
      3000, 0x7EACE, [&](Rng& rng) { return mutate_csv(csv, rng); },
      [&](const std::string& text) {
        for (const JobSpec& job : trace_from_csv(text)) negative_ids += job.id < 0 ? 1 : 0;
      });
  expect_no_escapes(tally);
  EXPECT_EQ(negative_ids, 0) << "a loaded trace carried a negative job id";
}

// ---- binary trace log -------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One deterministic mutation of a log file: a bit flip, a boundary integer
/// written over 8 bytes (the header's count field included), a truncation,
/// or a splice.
std::vector<std::uint8_t> mutate_log(const std::vector<std::uint8_t>& bytes, Rng& rng) {
  std::vector<std::uint8_t> m = bytes;
  switch (rng.below(4)) {
    case 0:
      m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1: {
      static constexpr std::uint64_t kBoundary[] = {0, ~std::uint64_t{0}, 0x7FFFFFFFu,
                                                    std::uint64_t{1} << 63, 1};
      const std::uint64_t value = kBoundary[rng.below(std::size(kBoundary))];
      // Half the writes land on the header's record count (offset 24).
      const std::size_t at = rng.chance(0.5) ? 24 : rng.below(m.size() - 8 + 1);
      for (std::size_t b = 0; b < 8; ++b) {
        m[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
      }
      break;
    }
    case 2:
      m.resize(rng.below(m.size()));
      break;
    default: {
      const std::size_t cut = rng.below(m.size());
      const std::size_t from = rng.below(bytes.size());
      m.resize(cut);
      m.insert(m.end(), bytes.begin() + static_cast<std::ptrdiff_t>(from), bytes.end());
      break;
    }
  }
  return m;
}

TEST(TraceLogFuzz, MutationsLoadOrThrowDocumentedErrors) {
  SimConfig config;
  config.seed = 3;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 900.0;
  config.failures.mean_repair_seconds = 120.0;
  Recorder recorder;
  config.recorder = &recorder;
  TraceModelConfig model;
  model.max_tasks_per_phase = 10;
  DollyMPScheduler scheduler;
  (void)simulate(Cluster::paper30(), config, TraceModel(model, 5).sample_jobs(6), scheduler);
  const std::string path = ::testing::TempDir() + "dollymp_log_fuzz_seed.dmptrc";
  save_log(path, recorder.snapshot(), config.slot_seconds);
  const std::vector<std::uint8_t> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 32u);
  ASSERT_FALSE(load_log(path).records.empty());  // the unmutated log loads

  const std::string mutated = ::testing::TempDir() + "dollymp_log_fuzz_case.dmptrc";
  const FuzzTally tally = fuzz(
      600, 0x106F0, [&](Rng& rng) { return mutate_log(bytes, rng); },
      [&](const std::vector<std::uint8_t>& m) {
        write_file(mutated, m);
        (void)load_log(mutated);
      });
  expect_no_escapes(tally);
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

}  // namespace
}  // namespace dollymp

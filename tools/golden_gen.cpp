// One-shot generator for the pinned golden tables: runs a matrix against
// the *current* build and prints each run's flight-recorder stream hash and
// record count.  Not part of the CMake build; compile it by hand against
// the library, e.g. from a build directory:
//
//   c++ -std=c++20 -O2 -I../src/include ../tools/golden_gen.cpp \
//       src/libdollymp.a -lpthread -o golden_gen && ./golden_gen
//
// Two tables:
//   * layout: the data-layout matrix (tests/layout_golden_matrix.h), run
//     against the pre-refactor object-per-entity layout and embedded in
//     tests/test_layout_equivalence.cpp;
//   * placement: the placement-equivalence cases
//     (tests/placement_golden_matrix.h), embedded in that header.  That
//     table was produced by the linear-scan placement path: this generator
//     ran on the last tree that still had a SimConfig switch selecting it,
//     with the switch set to the linear scan inside run_one, and printed
//     identical rows with the switch set to the index.
#include <cstdio>
#include <utility>

#include "../tests/layout_golden_matrix.h"
#include "../tests/placement_golden_matrix.h"
#include "dollymp/obs/recorder.h"

namespace {

using namespace dollymp;

std::pair<std::uint64_t, std::uint64_t> run_one(const Cluster& cluster,
                                                const SimConfig& config,
                                                const std::vector<JobSpec>& jobs,
                                                const SchedulerFactory& factory) {
  Recorder rec;
  SimConfig run = config;
  run.recorder = &rec;
  auto sched = factory();
  (void)simulate(cluster, run, jobs, *sched);
  return {rec.hash(), rec.records_written()};
}

void print_row(const std::string& label, std::uint64_t hash, std::uint64_t records) {
  std::printf("    {\"%s\", 0x%016llxULL, %lluULL},\n", label.c_str(),
              static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(records));
}

}  // namespace

int main() {
  std::printf("// layout (tests/test_layout_equivalence.cpp)\n");
  for (const auto& run : layout_golden::run_matrix(run_one)) {
    print_row(run.label, run.hash, run.records);
  }
  std::printf("// placement (tests/placement_golden_matrix.h)\n");
  for (const auto& c : placement_golden::all_cases()) {
    const auto [hash, records] = run_one(c.cluster, c.config, c.jobs, c.factory);
    print_row(c.label, hash, records);
  }
  return 0;
}

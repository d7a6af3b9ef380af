// dollymp_sim and dollymp_sweep build their workload with the one
// RunSpec::make_jobs, so a one-replication sweep cell is the run
// dollymp_sim gives for the same flags: same mean flowtime, same makespan.
// Runs both tool binaries (paths compiled in) on a healthy and a crash
// case.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

namespace {

/// stdout of `command`, run by the shell.
std::string output_of(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buffer[4096];
  while (const std::size_t n = std::fread(buffer, 1, sizeof(buffer), pipe)) {
    out.append(buffer, n);
  }
  pclose(pipe);
  return out;
}

/// The number right after `key` in `text`; NaN when `key` is missing.
double number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::stod(text.substr(at + key.size()));
}

void expect_same_run(const std::string& sim_flags, const std::string& sweep_flags) {
  const std::string sim =
      output_of("'" DOLLYMP_SIM "' --jobs 40 --quiet " + sim_flags);
  const std::string sweep =
      output_of("'" DOLLYMP_SWEEP "' --jobs 40 --replications 1 --quiet " + sweep_flags);
  // The sim prints six significant digits, the sweep every digit.
  const double sim_flow = number_after(sim, "mean_flow_s=");
  const double sweep_flow = number_after(sweep, "\"mean_flowtime_seconds\":{\"n\":1,\"mean\":");
  EXPECT_NEAR(sim_flow, sweep_flow, 1e-5 * sweep_flow) << sim << sweep;
  const double sim_makespan = number_after(sim, "makespan_s=");
  const double sweep_makespan = number_after(sweep, "\"makespan_seconds\":{\"n\":1,\"mean\":");
  EXPECT_NEAR(sim_makespan, sweep_makespan, 1e-5 * sweep_makespan) << sim << sweep;
}

TEST(ToolAgreement, SweepCellIsTheSimRunHealthy) {
  expect_same_run("--seed 3", "--seed 3 --policies dollymp2");
}

TEST(ToolAgreement, SweepCellIsTheSimRunUnderCrashes) {
  expect_same_run("--seed 2 --scheduler tetris --failures 600:120",
                  "--seed 2 --policies tetris --faults crash");
}

}  // namespace

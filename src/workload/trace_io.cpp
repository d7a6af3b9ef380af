#include "dollymp/workload/trace_io.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "dollymp/common/csv.h"

namespace dollymp {

namespace {

std::string join_parents(const std::vector<PhaseIndex>& parents) {
  std::string out;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (i) out += ';';
    out += std::to_string(parents[i]);
  }
  return out;
}

std::vector<PhaseIndex> split_parents(const CsvTable& table, std::size_t row) {
  std::vector<PhaseIndex> parents;
  std::stringstream ss(table.cell(row, "parents"));
  std::string token;
  while (std::getline(ss, token, ';')) {
    if (token.empty()) continue;
    PhaseIndex parent = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, parent);
    if (ec != std::errc{} || ptr != end) {
      throw std::runtime_error("trace: " + CsvTable::where(row, "parents") + ": '" +
                               token + "' is not a phase index");
    }
    parents.push_back(parent);
  }
  return parents;
}

// The `gpu` and `gang` columns are written unconditionally but optional on
// read, so pre-GPU trace files keep loading unchanged (demand defaults to
// zero GPUs, phases to non-gang).
const std::vector<std::string> kHeader = {
    "job_id",  "job_name", "app",     "arrival_s", "phase", "phase_name", "tasks",
    "cpu",     "mem_gb",   "gpu",     "theta_s",   "sigma_s", "gang",     "parents"};

}  // namespace

std::string trace_to_csv(const std::vector<JobSpec>& jobs) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_header(kHeader);
  for (const auto& job : jobs) {
    for (std::size_t k = 0; k < job.phases.size(); ++k) {
      const auto& p = job.phases[k];
      writer.write_row(static_cast<long long>(job.id), job.name, job.app,
                       job.arrival_seconds, static_cast<long long>(k), p.name,
                       static_cast<long long>(p.task_count), p.demand.cpu(),
                       p.demand.mem(), p.demand.gpu(), p.theta_seconds, p.sigma_seconds,
                       static_cast<long long>(p.gang ? 1 : 0), join_parents(p.parents));
    }
  }
  return os.str();
}

std::vector<JobSpec> trace_from_csv(const std::string& csv_text) {
  const CsvTable table = CsvTable::parse(csv_text);
  // Jobs may be interleaved; group rows by job id preserving first-seen
  // order, and phases by their explicit phase index.
  std::vector<JobSpec> jobs;
  std::map<long long, std::size_t> index_of;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    // Range-check before narrowing: 4294967297 would wrap to job 1, and a
    // negative id would index schedulers' per-job tables out of bounds.
    const long long id = table.cell_int(r, "job_id");
    if (id < 0 || id > std::numeric_limits<JobId>::max()) {
      throw std::runtime_error("trace: " + CsvTable::where(r, "job_id") + ": " +
                               std::to_string(id) + " is outside [0, " +
                               std::to_string(std::numeric_limits<JobId>::max()) + "]");
    }
    auto [it, inserted] = index_of.try_emplace(id, jobs.size());
    if (inserted) {
      JobSpec job;
      job.id = static_cast<JobId>(id);
      job.name = table.cell(r, "job_name");
      job.app = table.cell(r, "app");
      job.arrival_seconds = table.cell_double(r, "arrival_s");
      jobs.push_back(std::move(job));
    }
    JobSpec& job = jobs[it->second];
    // Each row holds one phase, so a valid index is below the row count.
    // Checking before the resize bounds memory by the input size.
    const long long phase_cell = table.cell_int(r, "phase");
    if (phase_cell < 0 || static_cast<unsigned long long>(phase_cell) >= table.rows()) {
      throw std::runtime_error("trace: " + CsvTable::where(r, "phase") + ": index " +
                               std::to_string(phase_cell) + " is outside [0, " +
                               std::to_string(table.rows()) + ")");
    }
    const auto phase_idx = static_cast<std::size_t>(phase_cell);
    if (job.phases.size() <= phase_idx) job.phases.resize(phase_idx + 1);
    PhaseSpec& phase = job.phases[phase_idx];
    phase.name = table.cell(r, "phase_name");
    // Range-check before narrowing: 4294967297 would wrap to one task.
    const long long tasks = table.cell_int(r, "tasks");
    if (tasks < std::numeric_limits<int>::min() || tasks > std::numeric_limits<int>::max()) {
      throw std::runtime_error("trace: " + CsvTable::where(r, "tasks") + ": " +
                               std::to_string(tasks) + " does not fit a task count");
    }
    phase.task_count = static_cast<int>(tasks);
    const double gpus =
        table.column("gpu").has_value() ? table.cell_double(r, "gpu") : 0.0;
    phase.demand = {table.cell_double(r, "cpu"), table.cell_double(r, "mem_gb"), gpus};
    phase.theta_seconds = table.cell_double(r, "theta_s");
    phase.sigma_seconds = table.cell_double(r, "sigma_s");
    phase.gang = table.column("gang").has_value() && table.cell_int(r, "gang") != 0;
    phase.parents = split_parents(table, r);
  }
  for (const auto& job : jobs) job.validate();
  return jobs;
}

void save_trace(const std::vector<JobSpec>& jobs, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace_io: cannot write " + path);
  out << trace_to_csv(jobs);
}

std::vector<JobSpec> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace_io: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return trace_from_csv(buf.str());
}

}  // namespace dollymp

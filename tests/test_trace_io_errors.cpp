// Error handling and tolerance of the trace CSV reader — the drop-in
// surface for real cluster traces, so malformed input must fail loudly
// and understandably rather than produce corrupt workloads.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dollymp/workload/trace_io.h"

namespace dollymp {
namespace {

const char* kHeader =
    "job_id,job_name,app,arrival_s,phase,phase_name,tasks,cpu,mem_gb,theta_s,sigma_s,"
    "parents\n";

std::string with_rows(const std::string& rows) { return std::string(kHeader) + rows; }

TEST(TraceIoErrors, EmptyTraceIsEmptyWorkload) {
  EXPECT_TRUE(trace_from_csv(kHeader).empty());
  EXPECT_TRUE(trace_from_csv("").empty());
}

TEST(TraceIoErrors, MinimalValidRow) {
  const auto jobs =
      trace_from_csv(with_rows("0,j,app,0,0,map,4,1,2,30,10,\n"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].phases[0].task_count, 4);
  EXPECT_TRUE(jobs[0].phases[0].parents.empty());
}

TEST(TraceIoErrors, InterleavedJobsRegroup) {
  const auto jobs = trace_from_csv(with_rows(
      "0,a,app,0,0,map,2,1,2,30,0,\n"
      "1,b,app,5,0,map,3,1,2,30,0,\n"
      "0,a,app,0,1,reduce,1,1,2,30,0,0\n"));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].phases.size(), 2u);
  EXPECT_EQ(jobs[1].phases.size(), 1u);
}

TEST(TraceIoErrors, NonNumericCellThrows) {
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,four,1,2,30,10,\n")),
               std::runtime_error);
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,zero,0,map,4,1,2,30,10,\n")),
               std::runtime_error);
}

/// The message of the std::runtime_error `text` raises, or "" if it
/// returns or throws anything else.
std::string runtime_error_of(const std::string& text) {
  try {
    (void)trace_from_csv(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (...) {
  }
  return "";
}

TEST(TraceIoErrors, CellErrorsNameRowAndField) {
  const std::string tasks = runtime_error_of(with_rows(
      "0,j,app,0,0,map,4,1,2,30,10,\n"
      "0,j,app,0,1,red,four,1,2,30,10,0\n"));
  EXPECT_NE(tasks.find("row 2"), std::string::npos) << tasks;
  EXPECT_NE(tasks.find("'tasks'"), std::string::npos) << tasks;
  EXPECT_NE(tasks.find("'four'"), std::string::npos) << tasks;

  const std::string arrival =
      runtime_error_of(with_rows("0,j,app,zero,0,map,4,1,2,30,10,\n"));
  EXPECT_NE(arrival.find("row 1"), std::string::npos) << arrival;
  EXPECT_NE(arrival.find("'arrival_s'"), std::string::npos) << arrival;

  const std::string parents =
      runtime_error_of(with_rows("0,j,app,0,0,map,4,1,2,30,10,x\n"));
  EXPECT_NE(parents.find("row 1"), std::string::npos) << parents;
  EXPECT_NE(parents.find("'parents'"), std::string::npos) << parents;
}

// phase=-1 used to resize the job to zero phases and then index SIZE_MAX.
TEST(TraceIoErrors, NegativePhaseIndexIsRejected) {
  const std::string what = runtime_error_of(with_rows("0,j,app,0,-1,map,4,1,2,30,10,\n"));
  EXPECT_NE(what.find("row 1"), std::string::npos) << what;
  EXPECT_NE(what.find("'phase'"), std::string::npos) << what;
}

// phase=2000000000 used to allocate two billion PhaseSpecs (bad_alloc): an
// index must be below the file's row count, so memory stays bounded by the
// input size.
TEST(TraceIoErrors, PhaseIndexBeyondRowCountIsRejected) {
  const std::string huge =
      runtime_error_of(with_rows("0,j,app,0,2000000000,map,4,1,2,30,10,\n"));
  EXPECT_NE(huge.find("row 1"), std::string::npos) << huge;
  EXPECT_NE(huge.find("'phase'"), std::string::npos) << huge;
  // The bound is exact: index 1 is legal in a two-row file, 2 is not.
  EXPECT_NO_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,4,1,2,30,10,\n"
                                                 "0,j,app,0,1,red,1,1,2,30,10,0\n")));
  const std::string past = runtime_error_of(with_rows("0,j,app,0,0,map,4,1,2,30,10,\n"
                                                      "0,j,app,0,2,red,1,1,2,30,10,0\n"));
  EXPECT_NE(past.find("row 2"), std::string::npos) << past;
}

/// Expect `row` (a single data row) to fail with a std::runtime_error that
/// names row 1 and `field`.
void expect_row_rejected(const std::string& row, const std::string& field) {
  const std::string what = runtime_error_of(with_rows(row));
  EXPECT_NE(what.find("row 1"), std::string::npos) << row << " -> '" << what << "'";
  EXPECT_NE(what.find("'" + field + "'"), std::string::npos) << row << " -> '" << what << "'";
}

// std::stod stopped at the first non-digit, so cpu=2.5abc loaded as 2.5.
TEST(TraceIoErrors, TrailingCharactersInNumberAreRejected) {
  expect_row_rejected("0,j,app,0,0,map,4,2.5abc,2,30,10,\n", "cpu");
}

// static_cast<int>(4294967297) wrapped to a one-task phase.
TEST(TraceIoErrors, TaskCountBeyondIntIsRejected) {
  expect_row_rejected("0,j,app,0,0,map,4294967297,1,2,30,10,\n", "tasks");
  expect_row_rejected("0,j,app,0,0,map,-4294967297,1,2,30,10,\n", "tasks");
}

// job_id=-1 loaded and crashed DollyMP's per-job tables (SIGSEGV), and
// job_id=4294967297 wrapped to job 1, so two jobs shared an id.
TEST(TraceIoErrors, JobIdOutsideInt32IsRejected) {
  expect_row_rejected("-1,j,app,0,0,map,4,1,2,30,10,\n", "job_id");
  expect_row_rejected("4294967297,j,app,0,0,map,4,1,2,30,10,\n", "job_id");
  const auto jobs = trace_from_csv(with_rows("2147483647,j,app,0,0,map,4,1,2,30,10,\n"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 2147483647);
}

// arrival_s=nan loaded, and llround(NaN) put the job's arrival at INT64_MIN,
// so flowtime arithmetic overflowed in the simulator.
TEST(TraceIoErrors, NanArrivalIsRejected) {
  expect_row_rejected("0,j,app,nan,0,map,4,1,2,30,10,\n", "arrival_s");
}

// sigma_s=nan passed validation (NaN < 0 is false) and threw deep in the
// simulator without naming the row.
TEST(TraceIoErrors, NanSigmaIsRejected) {
  expect_row_rejected("0,j,app,0,0,map,4,1,2,30,nan,\n", "sigma_s");
}

// theta_s=inf passed validation and threw deep in the simulator.
TEST(TraceIoErrors, InfiniteThetaIsRejected) {
  expect_row_rejected("0,j,app,0,0,map,4,1,2,inf,10,\n", "theta_s");
}

TEST(TraceIoErrors, InvalidJobRejectedByValidation) {
  // Zero tasks.
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,0,1,2,30,10,\n")),
               std::invalid_argument);
  // Zero theta.
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,4,1,2,0,10,\n")),
               std::invalid_argument);
  // Forward parent reference (phase 0 cannot depend on phase 1).
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,4,1,2,30,10,1\n"
                                              "0,j,app,0,1,red,1,1,2,30,10,\n")),
               std::invalid_argument);
  // Zero demand.
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0,map,4,0,0,30,10,\n")),
               std::invalid_argument);
}

TEST(TraceIoErrors, MissingColumnThrows) {
  const std::string bad_header = "job_id,job_name,app\n0,j,app\n";
  EXPECT_THROW((void)trace_from_csv(bad_header), std::out_of_range);
}

TEST(TraceIoErrors, RaggedRowThrows) {
  EXPECT_THROW((void)trace_from_csv(with_rows("0,j,app,0,0\n")), std::runtime_error);
}

TEST(TraceIoErrors, MultiParentListParses) {
  const auto jobs = trace_from_csv(with_rows(
      "0,j,app,0,0,scanA,2,1,2,30,0,\n"
      "0,j,app,0,1,scanB,2,1,2,30,0,\n"
      "0,j,app,0,2,join,1,1,2,30,0,0;1\n"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].phases[2].parents, (std::vector<PhaseIndex>{0, 1}));
}

TEST(TraceIoErrors, QuotedNamesSurvive) {
  const auto jobs = trace_from_csv(with_rows(
      "0,\"job, with comma\",app,0,0,map,1,1,2,30,0,\n"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "job, with comma");
  // And they survive a round trip.
  const auto again = trace_from_csv(trace_to_csv(jobs));
  EXPECT_EQ(again[0].name, "job, with comma");
}

}  // namespace
}  // namespace dollymp

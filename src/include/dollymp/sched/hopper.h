// Hopper-style speculation-aware scheduling (Ren et al., SIGCOMM'15) —
// the closest prior art the paper discusses (Section 7).
//
// Hopper's idea: budget speculation *into* the job-level allocation.  Each
// job is sized by its "virtual size" — its task count inflated by a
// speculation factor derived from the straggler distribution — and jobs
// are served smallest-virtual-size first.  Crucially, Hopper is
// *non-work-conserving*: it reserves a slice of capacity for future
// speculative copies of the jobs at the head of the queue instead of
// handing every free slot to the next waiting task.  The paper calls this
// out as Hopper's weakness ("it is possible to keep a computing slot idle
// as a reservation for a future straggler while other jobs/tasks already
// queue up"), and this implementation reproduces exactly that behaviour so
// the trade-off is measurable.
#pragma once

#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/speculation.h"

namespace dollymp {

struct HopperConfig {
  /// Virtual-size inflation: fraction of extra capacity budgeted per job
  /// for speculation (Hopper derives ~10-20% from the straggler tail).
  double speculation_budget = 0.15;
  /// Speculation trigger shared with the LATE-style module.
  SpeculationConfig speculation;

  HopperConfig() {
    speculation.slow_factor = 1.8;  // Hopper speculates earlier than stock Hadoop
    speculation.min_finished_fraction = 0.2;
  }
};

class HopperScheduler final : public Scheduler {
 public:
  explicit HopperScheduler(HopperConfig config = {});

  [[nodiscard]] std::string name() const override { return "hopper"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  HopperConfig config_;
};

}  // namespace dollymp

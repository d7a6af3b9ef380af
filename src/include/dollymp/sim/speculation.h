// LATE-style speculative execution, used by the Capacity baseline.
//
// Hadoop's speculation (which the paper's Capacity baseline runs, Section 2)
// monitors task progress and launches a backup for a task running much
// slower than its peers.  In the simulator a policy cannot observe the
// realized durations (non-clairvoyance), so it does what Hadoop does:
// compare a task's elapsed runtime against the phase's expected duration
// and the progress of already-finished siblings, and back up the worst
// overrunners when spare resources exist.  The paper's Fig. 1 observation —
// backups launch too late to save small jobs — emerges naturally: a task is
// only recognized as a straggler after running slow_factor * theta seconds.
#pragma once

#include "dollymp/sched/scheduler.h"

namespace dollymp {

struct SpeculationConfig {
  bool enabled = true;
  /// A task becomes a backup candidate after elapsed > slow_factor * theta.
  /// Hadoop flags a task only once it has demonstrably fallen behind the
  /// phase (progress score a standard deviation below the mean), which on
  /// heavy-tailed durations corresponds to roughly twice the expected time.
  double slow_factor = 2.5;
  /// Additionally require that at least this fraction of the phase's tasks
  /// have finished (Hadoop will not speculate before it has statistically
  /// significant samples — the very limitation Section 1 calls out for
  /// small jobs); 0 disables the gate.
  double min_finished_fraction = 0.4;
  /// At most one backup per task (Hadoop's default), so with the original
  /// copy a speculated task has 2 concurrent copies.
  int max_backups_per_task = 1;
  /// Cap on the fraction of cluster slots spent on backups at once.
  double capacity_fraction_cap = 0.10;
};

/// Scans active jobs and launches backups through the context.  Returns the
/// number of backups launched.  Reusable by any scheduler; the Capacity
/// baseline calls it after its normal placement pass.
///
/// Event-driven: the pass also registers a timer wakeup
/// (SchedulerContext::request_wakeup) at the earliest future slot where a
/// currently-running task will cross the slow_factor threshold, so callers
/// need no every-slot polling — between events and that crossing, the
/// pass's decision cannot change.
int run_speculation_pass(SchedulerContext& ctx, const SpeculationConfig& config);

}  // namespace dollymp

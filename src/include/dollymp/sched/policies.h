// The policy registry: the one map from a policy name to a scheduler.
//
// Every tool, the bench harness and the service Session resolve policy
// names here, so a name means the same scheduler everywhere:
//
//   capacity hopper drf tetris carbyne srpt svf   the baselines
//   dollymp0 ... dollymp9                         DollyMP with clone budget K
//
// DollyMP variants beyond the clone budget (straggler-aware scoring,
// resilience, the clone-order ablation) are DollyMPConfig options passed
// alongside a dollymp<K> name, not names of their own.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/scheduler.h"

namespace dollymp {

/// The accepted names, in the order error messages list them.
[[nodiscard]] const std::vector<std::string>& known_policy_names();

/// A fresh scheduler for `name`.  For dollymp<K>, `dollymp` supplies every
/// DollyMP field (defaults when absent) and K sets clone_budget.  Throws
/// std::invalid_argument listing the known names on an unknown name,
/// quoting the bad text when K is not a digit, and when DollyMP options
/// come with any other name.
[[nodiscard]] std::unique_ptr<Scheduler> make_named_policy(
    const std::string& name, std::optional<DollyMPConfig> dollymp = {});

/// A factory over make_named_policy(name, dollymp) for runs that each need
/// their own instance.  The name and options are checked now, so a bad
/// name throws here rather than inside the first run.
[[nodiscard]] SchedulerFactory named_policy_factory(
    const std::string& name, std::optional<DollyMPConfig> dollymp = {});

}  // namespace dollymp

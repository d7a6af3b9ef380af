#include "dollymp/sched/policies.h"

#include <stdexcept>
#include <string_view>

#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"

namespace dollymp {

namespace {

constexpr std::string_view kDollyMPPrefix = "dollymp";

std::string known_list() {
  std::string known;
  for (const std::string& name : known_policy_names()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  return known;
}

/// The baseline named `name`, or null when it names none.
std::unique_ptr<Scheduler> make_baseline(const std::string& name) {
  if (name == "capacity") return std::make_unique<CapacityScheduler>();
  if (name == "hopper") return std::make_unique<HopperScheduler>();
  if (name == "drf") return std::make_unique<DrfScheduler>();
  if (name == "tetris") return std::make_unique<TetrisScheduler>();
  if (name == "carbyne") return std::make_unique<CarbyneScheduler>();
  if (name == "srpt") {
    return std::make_unique<SimplePriorityScheduler>(
        SimplePriorityConfig{SimplePriorityRule::kSrpt, 1.5, 0});
  }
  if (name == "svf") {
    return std::make_unique<SimplePriorityScheduler>(
        SimplePriorityConfig{SimplePriorityRule::kSvf, 1.5, 0});
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& known_policy_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = {"capacity", "hopper", "drf", "tetris",
                                    "carbyne",  "srpt",   "svf"};
    for (char k = '0'; k <= '9'; ++k) out.push_back(std::string(kDollyMPPrefix) + k);
    return out;
  }();
  return names;
}

std::unique_ptr<Scheduler> make_named_policy(const std::string& name,
                                             std::optional<DollyMPConfig> dollymp) {
  if (name.size() > kDollyMPPrefix.size() && name.starts_with(kDollyMPPrefix)) {
    const std::string budget = name.substr(kDollyMPPrefix.size());
    if (budget.size() != 1 || budget[0] < '0' || budget[0] > '9') {
      throw std::invalid_argument("'" + budget + "' in policy '" + name +
                                  "' is not a clone budget in [0, 9] (known: " +
                                  known_list() + ")");
    }
    DollyMPConfig config = dollymp.value_or(DollyMPConfig{});
    config.clone_budget = budget[0] - '0';
    return std::make_unique<DollyMPScheduler>(config);
  }
  std::unique_ptr<Scheduler> baseline = make_baseline(name);
  if (baseline == nullptr) {
    throw std::invalid_argument("unknown policy '" + name + "' (known: " + known_list() +
                                ")");
  }
  if (dollymp) {
    throw std::invalid_argument("policy '" + name +
                                "' is not a DollyMP policy and takes no DollyMP options");
  }
  return baseline;
}

SchedulerFactory named_policy_factory(const std::string& name,
                                      std::optional<DollyMPConfig> dollymp) {
  (void)make_named_policy(name, dollymp);
  return [name, dollymp] { return make_named_policy(name, dollymp); };
}

}  // namespace dollymp

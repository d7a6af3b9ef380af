// Algorithm 1: the transient scheduling priority oracle.
//
// Given the active jobs' effective volumes v_j, effective lengths e_j and
// dominant shares d_j, Proc() buckets jobs into doubling categories: for
// l = 1, 2, ..., g it considers B_l = { j : e_j <= 2^l } and solves the
// unit-profit knapsack  max sum x_j  s.t.  sum v_j x_j <= 2^l.  A job's
// priority p_j is the first l at which the oracle selects it; smaller is
// scheduled earlier.  g = ceil(log2( sum_j v_j / (1 - max_j d_j) )),
// extended as needed so every job eventually receives a class.
//
// The combination is the paper's SRPT/SVF balance: the e_j <= 2^l filter is
// SRPT-like (short jobs enter early rounds), while the knapsack over
// volumes is SVF-like but packs as many jobs as fit instead of strictly
// ordering by volume.
#pragma once

#include <cstddef>
#include <vector>

namespace dollymp {

struct PriorityJobInput {
  double volume = 0.0;    ///< v_j (Eq. 10 / 14 / 16), in slots
  double length = 0.0;    ///< e_j (Eq. 14 / 17), in slots
  double dominant = 0.0;  ///< d_j = max dominant share over phases (Eq. 9/15)
};

struct PriorityResult {
  /// Priority class per input job, 1-based; smaller = scheduled earlier.
  std::vector<int> priority;
  /// Number of doubling rounds actually used.
  int rounds = 0;
};

[[nodiscard]] PriorityResult compute_transient_priorities(
    const std::vector<PriorityJobInput>& jobs);

/// Weighted-flowtime variant (the objective of the capacity-augmentation
/// literature the paper builds on, Fox & Korupolu [16]): jobs carry
/// priorities/weights w_j and each round's knapsack maximizes the total
/// *weight* packed instead of the count, solved exactly by branch and
/// bound.  With all weights equal this reduces to the unit-profit oracle
/// (asserted by the test suite).
struct WeightedPriorityJobInput {
  double volume = 0.0;
  double length = 0.0;
  double dominant = 0.0;
  double weight = 1.0;  ///< w_j > 0; larger = more important
};

[[nodiscard]] PriorityResult compute_weighted_transient_priorities(
    const std::vector<WeightedPriorityJobInput>& jobs);

}  // namespace dollymp

#include "runtime/recovery.h"

#include <algorithm>

namespace sq::runtime {

namespace {

/// A permanent straggler the changed cluster bakes into its specs.
bool baked(const sq::sim::FaultEvent& e) {
  return e.kind == sq::sim::FaultKind::kSlowdown && e.permanent() &&
         e.factor > 1.0;
}

}  // namespace

std::optional<sq::sim::ExecutionPlan> climb_ladder(const PlanAttempt& attempt,
                                                   const sq::hw::Cluster& changed,
                                                   int max_attempts) {
  for (int a = 0; a < std::max(1, max_attempts); ++a) {
    if (auto plan = attempt(changed, a)) return plan;
  }
  return std::nullopt;
}

PlanSwitch switch_plan(const ReplicaGroup& from, const std::vector<int>& exclude,
                       const sq::sim::FaultSchedule* faults,
                       const PlanAttempt& attempt, int max_attempts,
                       int generation, const WeightPrep* prep) {
  PlanSwitch sw;
  std::vector<sq::hw::DeviceDerate> derates;
  if (faults != nullptr) {
    for (const auto& e : faults->events) {
      if (baked(e)) derates.push_back({e.device, e.factor});
    }
  }
  sq::hw::DegradedCluster deg =
      sq::hw::degrade_cluster(from.cluster, exclude, derates);
  if (!deg.feasible) {
    sw.failure = std::move(deg.failure);
    return sw;
  }
  auto plan = climb_ladder(attempt, deg.cluster, max_attempts);
  if (!plan) return sw;

  sw.ok = true;
  sw.next.cluster = std::move(deg.cluster);
  sw.next.predicted_tok_s = from.predicted_tok_s;
  sw.next.to_original.reserve(deg.to_original.size());
  for (const int i : deg.to_original) {
    sw.next.to_original.push_back(
        from.to_original.empty() ? i
                                 : from.to_original[static_cast<std::size_t>(i)]);
  }
  sw.next.plan = std::move(*plan);
  if (generation > 0) {
    sw.next.plan.repair_generation = generation;
    sw.next.plan.excluded_devices = exclude;
    std::sort(sw.next.plan.excluded_devices.begin(),
              sw.next.plan.excluded_devices.end());
  }
  // Incremental re-preparation: only layers whose bit assignment changed
  // are re-quantized; the rest hit the QuantCache.
  if (prep != nullptr) prep->reprepare(from.plan.layer_bits, sw.next.plan.layer_bits);
  sw.from_index = std::move(deg.from_original);

  if (faults != nullptr) {
    for (const auto& e : faults->events) {
      const bool excluded =
          std::find(exclude.begin(), exclude.end(), e.device) != exclude.end();
      if (!excluded && !baked(e)) sw.faults.events.push_back(e);
    }
  }
  return sw;
}

}  // namespace sq::runtime

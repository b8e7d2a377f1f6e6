#include "sim/fault.h"

#include <algorithm>

namespace hmr::sim {

double ComputeFaults::hang_until(int host_id, double now) const {
  double until = 0.0;
  for (const auto& fault : task) {
    if (fault.kind != TaskFault::Kind::kHang || fault.host_id != host_id) {
      continue;
    }
    if (now >= fault.at && now < fault.at + fault.duration) {
      until = std::max(until, fault.at + fault.duration);
    }
  }
  return until;
}

double ComputeFaults::slow_factor(int host_id, double now) const {
  double factor = 1.0;
  for (const auto& fault : task) {
    if (fault.kind != TaskFault::Kind::kSlow || fault.host_id != host_id) {
      continue;
    }
    const bool active = now >= fault.at &&
                        (fault.duration <= 0 || now < fault.at + fault.duration);
    if (active) factor *= fault.factor;
  }
  return factor;
}

FaultPlan::ResponseFate FaultPlan::response_fate(int host_id,
                                                 double* stall_seconds) {
  auto it = response_faults_.find(host_id);
  if (it == response_faults_.end()) return ResponseFate::kDeliver;
  const ResponseFault& fault = it->second;
  if (fault.drop_prob > 0.0 && rng_.chance(fault.drop_prob)) {
    return ResponseFate::kDrop;
  }
  if (fault.stall_prob > 0.0 && rng_.chance(fault.stall_prob)) {
    if (stall_seconds != nullptr) *stall_seconds = fault.stall_seconds;
    return ResponseFate::kStall;
  }
  return ResponseFate::kDeliver;
}

}  // namespace hmr::sim

#include "mapred/scheduler.h"

namespace hmr::mapred {

const char* sched_policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kFair:
      return "fair";
    case SchedPolicy::kCapacity:
      return "capacity";
  }
  return "?";
}

PoolConfig SchedulerConfig::pool(const std::string& name) const {
  auto it = pools.find(name);
  return it != pools.end() ? it->second : PoolConfig{};
}

}  // namespace hmr::mapred

// Hosts and the cluster container.
//
// A Host bundles the per-node simulated resources: CPU cores (a counted
// sim::Resource every compute and socket-stack charge goes through),
// directional NIC links, and the node's local filesystem over its disks.
// Cluster wires N hosts to one non-blocking switch, mirroring the
// paper's testbed (§IV-A: Westmere, 8 cores, QDR HCA, Mellanox switch).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/profile.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/sync.h"
#include "storage/localfs.h"

namespace hmr::net {

// One direction of a NIC link, fair-shared among active flows.
struct SharedLink {
  double bw = 0.0;  // bytes/sec
  int active = 0;   // flows currently using this direction

  double share() const { return active > 0 ? bw / active : bw; }
};

struct HostSpec {
  std::string name;
  int cores = 8;  // dual quad-core Westmere
  std::vector<storage::DiskSpec> disks = {storage::DiskSpec::hdd("hdd0")};
};

class Host {
 public:
  Host(sim::Engine& engine, int id, const HostSpec& spec,
       const NetProfile& profile);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  int cores() const { return cores_; }

  sim::Resource& cpu() { return cpu_; }
  storage::LocalFS& fs() { return *fs_; }
  SharedLink& egress() { return egress_; }
  SharedLink& ingress() { return ingress_; }

  // Occupies one core for `seconds` of simulated time (scaled by the
  // host's current compute speed factor).
  sim::Task<> compute(double seconds);

  // Fault injection: multiplies both NIC directions' bandwidth by
  // `factor`. Flows in progress see the new share on their next
  // transmit step.
  void degrade_nic(double factor);
  // Fault injection: multiplies the host's compute speed by `factor`
  // (< 1 slows every subsequent compute()). Restores compose: degrading
  // by f and later by 1/f returns to the original speed.
  void degrade_cpu(double factor);

 private:
  sim::Engine& engine_;
  int id_;
  std::string name_;
  int cores_;
  sim::Resource cpu_;
  std::unique_ptr<storage::LocalFS> fs_;
  SharedLink egress_;
  SharedLink ingress_;
  double cpu_speed_ = 1.0;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, const NetProfile& profile,
          const std::vector<HostSpec>& specs);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  const NetProfile& profile() const { return profile_; }
  size_t size() const { return hosts_.size(); }
  Host& host(size_t i) { return *hosts_.at(i); }
  std::vector<Host*> hosts();

  // Arms the plan's NIC, CPU and disk faults: spawns a timer per
  // NIC/CPU/disk degrade entry, and hands each host's DiskFault to its
  // LocalFS with a host-unique RNG stream. (Tracker kills and response
  // drops are consulted inline by the shuffle engines.)
  void inject_faults(const sim::FaultPlan& plan);

  // Uniform cluster of n hosts named host0..host{n-1}.
  static std::vector<HostSpec> uniform(int n, int disks_per_host,
                                       bool ssd = false);

 private:
  // The cpu.degrade half of inject_faults. Task hang/slow windows are
  // not armed here: mapred consults them per attempt checkpoint.
  void arm_cpu_degrades(const std::vector<sim::CpuDegrade>& degrades);
  // The disk half of inject_faults.
  void arm_disk_faults(const std::map<int, sim::DiskFault>& faults);

  sim::Engine& engine_;
  NetProfile profile_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace hmr::net

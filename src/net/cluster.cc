#include "net/cluster.h"

namespace hmr::net {

Host::Host(sim::Engine& engine, int id, const HostSpec& spec,
           const NetProfile& profile)
    : engine_(engine),
      id_(id),
      name_(spec.name),
      cores_(spec.cores),
      cpu_(engine, spec.cores, spec.name + ".cpu") {
  std::vector<std::unique_ptr<storage::Disk>> disks;
  disks.reserve(spec.disks.size());
  for (const auto& disk_spec : spec.disks) {
    auto named = disk_spec;
    named.name = spec.name + "." + disk_spec.name;
    disks.push_back(std::make_unique<storage::Disk>(engine, std::move(named)));
  }
  fs_ = std::make_unique<storage::LocalFS>(engine, std::move(disks));
  egress_.bw = profile.effective_bw();
  ingress_.bw = profile.effective_bw();
}

sim::Task<> Host::compute(double seconds) {
  auto guard = co_await sim::hold(cpu_);
  co_await engine_.delay(seconds / cpu_speed_);
}

void Host::degrade_nic(double factor) {
  egress_.bw *= factor;
  ingress_.bw *= factor;
}

void Host::degrade_cpu(double factor) { cpu_speed_ *= factor; }

Cluster::Cluster(sim::Engine& engine, const NetProfile& profile,
                 const std::vector<HostSpec>& specs)
    : engine_(engine), profile_(profile) {
  int id = 0;
  std::uint64_t cores = 0;
  for (const auto& spec : specs) {
    cores += std::uint64_t(spec.cores);
    hosts_.push_back(std::make_unique<Host>(engine, id++, spec, profile_));
  }
  engine_.metrics().gauge("cluster.hosts").set(double(hosts_.size()));
  engine_.metrics().gauge("cluster.cores").set(double(cores));
}

void Cluster::inject_faults(const sim::FaultPlan& plan) {
  for (const auto& degrade : plan.nic_degrades()) {
    engine_.metrics().counter("cluster.nic_degrades_armed").add();
    if (degrade.restore_at >= 0) {
      engine_.metrics().counter("cluster.nic_restores_armed").add();
    }
    Host& host = *hosts_.at(size_t(degrade.host_id));
    engine_.spawn([](sim::Engine& engine, Host& host, double at,
                     double factor, double restore_at) -> sim::Task<> {
      const double dt = at - engine.now();
      if (dt > 0) co_await engine.delay(dt);
      host.degrade_nic(factor);
      if (restore_at < 0) co_return;
      const double window = restore_at - engine.now();
      if (window > 0) co_await engine.delay(window);
      host.degrade_nic(1.0 / factor);
    }(engine_, host, degrade.at, degrade.factor, degrade.restore_at));
  }
  arm_cpu_degrades(plan.compute_faults().cpu);
  arm_disk_faults(plan.disk_faults());
}

void Cluster::arm_cpu_degrades(const std::vector<sim::CpuDegrade>& degrades) {
  for (const auto& degrade : degrades) {
    engine_.metrics().counter("cluster.cpu_degrades_armed").add();
    Host& host = *hosts_.at(size_t(degrade.host_id));
    engine_.spawn([](sim::Engine& engine, Host& host, double at,
                     double factor, double duration) -> sim::Task<> {
      const double dt = at - engine.now();
      if (dt > 0) co_await engine.delay(dt);
      host.degrade_cpu(factor);
      if (duration <= 0) co_return;
      co_await engine.delay(duration);
      host.degrade_cpu(1.0 / factor);
    }(engine_, host, degrade.at, degrade.factor, degrade.duration));
  }
}

void Cluster::arm_disk_faults(const std::map<int, sim::DiskFault>& faults) {
  for (const auto& [host_id, fault] : faults) {
    Host& host = *hosts_.at(size_t(host_id));
    if (fault.any_io_fault()) {
      engine_.metrics().counter("cluster.disk_faults_armed").add();
      host.fs().arm_fault(
          fault, engine_.make_rng("disk.fault.h" + std::to_string(host_id)));
    }
    if (fault.slow_at >= 0) {
      engine_.metrics().counter("cluster.disk_degrades_armed").add();
      engine_.spawn([](sim::Engine& engine, Host& host, double at,
                       double factor) -> sim::Task<> {
        const double dt = at - engine.now();
        if (dt > 0) co_await engine.delay(dt);
        host.fs().degrade_disks(factor);
      }(engine_, host, fault.slow_at, fault.slow_factor));
    }
  }
}

std::vector<Host*> Cluster::hosts() {
  std::vector<Host*> out;
  out.reserve(hosts_.size());
  for (auto& h : hosts_) out.push_back(h.get());
  return out;
}

std::vector<HostSpec> Cluster::uniform(int n, int disks_per_host, bool ssd) {
  std::vector<HostSpec> specs;
  specs.reserve(n);
  for (int i = 0; i < n; ++i) {
    HostSpec spec;
    spec.name = "host" + std::to_string(i);
    spec.disks.clear();
    for (int d = 0; d < disks_per_host; ++d) {
      spec.disks.push_back(ssd ? storage::DiskSpec::ssd("ssd" + std::to_string(d))
                               : storage::DiskSpec::hdd("hdd" + std::to_string(d)));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace hmr::net

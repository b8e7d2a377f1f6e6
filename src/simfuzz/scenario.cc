#include "simfuzz/scenario.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>

#include "common/rng.h"
#include "common/units.h"
#include "mapred/types.h"

namespace hmr::simfuzz {
namespace {

// Each field draws from its own stream so the generated value of one
// field never depends on how many draws another field consumed.
Rng field_rng(std::uint64_t seed, const char* field) {
  return Rng(seed, std::string("simfuzz.") + field);
}

std::uint64_t pick(Rng& rng, std::initializer_list<std::uint64_t> choices) {
  auto it = choices.begin();
  std::advance(it, rng.below(choices.size()));
  return *it;
}

bool is_disk_kind(FaultSite::Kind kind) {
  switch (kind) {
    case FaultSite::Kind::kDiskIoErrors:
    case FaultSite::Kind::kDiskCorrupt:
    case FaultSite::Kind::kDiskCacheCorrupt:
    case FaultSite::Kind::kDiskFull:
    case FaultSite::Kind::kDiskSlow:
      return true;
    default:
      return false;
  }
}

bool is_compute_kind(FaultSite::Kind kind) {
  return kind == FaultSite::Kind::kCpuDegrade ||
         kind == FaultSite::Kind::kTaskHang ||
         kind == FaultSite::Kind::kTaskSlow;
}

// One random compute-fault (straggler) site. Hang windows stay bounded
// and speed factors positive, so every scenario completes and its
// speculation-disabled replay (the speculation.result_identity oracle)
// terminates too.
FaultSite random_compute_site(Rng& rng, int nodes) {
  FaultSite fault;
  fault.host = int(rng.range(1, nodes));
  fault.at = 20.0 * rng.uniform();
  const std::uint64_t roll = rng.below(100);
  if (roll < 40) {
    fault.kind = FaultSite::Kind::kCpuDegrade;
    fault.factor = 0.25 + 0.5 * rng.uniform();  // 4x .. 1.3x slower
    fault.seconds = rng.chance(0.5) ? 5.0 + 15.0 * rng.uniform() : 0.0;
  } else if (roll < 70) {
    fault.kind = FaultSite::Kind::kTaskHang;
    fault.seconds = 1.0 + 7.0 * rng.uniform();  // hangs must be bounded
  } else {
    fault.kind = FaultSite::Kind::kTaskSlow;
    fault.factor = 0.3 + 0.5 * rng.uniform();
    fault.seconds = rng.chance(0.5) ? 5.0 + 15.0 * rng.uniform() : 0.0;
  }
  return fault;
}

// Faults that take the host's shuffle service out of rotation. NIC and
// disk degradation only slow a host down, and disk corruption/errors are
// recovered per-operation, so neither disqualifies a tracker.
bool is_service_fault(FaultSite::Kind kind) {
  return kind == FaultSite::Kind::kKillTracker ||
         kind == FaultSite::Kind::kDropResponses ||
         kind == FaultSite::Kind::kStallResponses;
}

// Ensure at least one compute host carries no kill/drop/stall fault, so
// shuffle recovery always has a healthy tracker to re-execute maps on
// (runtime aborts by design when every tracker is blacklisted).
bool has_clean_tracker(int nodes, const std::vector<FaultSite>& faults) {
  for (int host = 1; host <= nodes; ++host) {
    bool clean = true;
    for (const auto& fault : faults) {
      if (fault.host == host && is_service_fault(fault.kind)) {
        clean = false;
        break;
      }
    }
    if (clean) return true;
  }
  return nodes > 0;  // vacuously true only for a degenerate empty cluster
}

// One random disk-fault site on a host other than `protected_host`, so
// at least one node's storage stays pristine (mirrors the clean-tracker
// invariant: recovery always has a healthy copy to fall back on).
// Probabilities are kept modest — the point is exercising the recovery
// ladders, not overwhelming their retry budgets.
FaultSite random_disk_site(Rng& rng, int nodes, int protected_host) {
  FaultSite fault;
  int host = int(rng.range(1, std::max(1, nodes - 1)));
  if (nodes > 1 && host >= protected_host) ++host;  // skip the protected host
  fault.host = host;
  const std::uint64_t roll = rng.below(100);
  if (roll < 30) {
    fault.kind = FaultSite::Kind::kDiskIoErrors;
    fault.prob = 0.02 + 0.18 * rng.uniform();
  } else if (roll < 55) {
    fault.kind = FaultSite::Kind::kDiskCorrupt;
    fault.prob = 0.02 + 0.10 * rng.uniform();
  } else if (roll < 75) {
    fault.kind = FaultSite::Kind::kDiskCacheCorrupt;
    fault.prob = 0.05 + 0.30 * rng.uniform();
  } else if (roll < 90) {
    fault.kind = FaultSite::Kind::kDiskFull;
    fault.at = 5.0 + 15.0 * rng.uniform();
    fault.seconds = 2.0 + 8.0 * rng.uniform();
  } else {
    fault.kind = FaultSite::Kind::kDiskSlow;
    fault.at = 20.0 * rng.uniform();
    fault.factor = 0.3 + 0.5 * rng.uniform();
  }
  return fault;
}

}  // namespace

const char* fault_kind_name(FaultSite::Kind kind) {
  switch (kind) {
    case FaultSite::Kind::kKillTracker: return "kill_tracker";
    case FaultSite::Kind::kDropResponses: return "drop_responses";
    case FaultSite::Kind::kStallResponses: return "stall_responses";
    case FaultSite::Kind::kDegradeNic: return "degrade_nic";
    case FaultSite::Kind::kDiskIoErrors: return "disk_io_errors";
    case FaultSite::Kind::kDiskCorrupt: return "disk_corrupt";
    case FaultSite::Kind::kDiskCacheCorrupt: return "disk_cache_corrupt";
    case FaultSite::Kind::kDiskFull: return "disk_full";
    case FaultSite::Kind::kDiskSlow: return "disk_slow";
    case FaultSite::Kind::kCpuDegrade: return "cpu_degrade";
    case FaultSite::Kind::kTaskHang: return "task_hang";
    case FaultSite::Kind::kTaskSlow: return "task_slow";
  }
  return "?";
}

Scenario Scenario::generate(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;

  {
    auto rng = field_rng(seed, "nodes");
    // Weighted toward small clusters: failures shrink better there.
    const std::uint64_t roll = rng.below(10);
    s.nodes = roll < 3 ? 2 : roll < 6 ? 3 : roll < 8 ? 4 : int(rng.range(5, 6));
    if (rng.chance(0.08)) s.nodes = 1;
  }
  {
    auto rng = field_rng(seed, "disks");
    s.disks = int(rng.range(1, 2));
    s.ssd = rng.chance(0.25);
  }
  {
    auto rng = field_rng(seed, "workload");
    s.workload = rng.chance(0.6) ? "terasort" : "sort";
  }
  {
    auto rng = field_rng(seed, "sizes");
    s.modeled_bytes = pick(rng, {64 * kMiB, 128 * kMiB, 256 * kMiB,
                                 512 * kMiB});
    s.block_bytes = pick(rng, {8 * kMiB, 16 * kMiB, 32 * kMiB, 64 * kMiB});
    s.block_bytes = std::min(s.block_bytes, s.modeled_bytes);
    // Keep the map count simulable: a fuzz scenario is one of hundreds.
    while (s.modeled_bytes / s.block_bytes > 32) s.block_bytes *= 2;
    s.target_real_bytes = pick(rng, {256 * kKiB, 512 * kKiB, 1 * kMiB});
  }
  {
    auto rng = field_rng(seed, "fabric");
    const std::uint64_t roll = rng.below(20);
    s.vanilla_profile = roll < 12 ? "ipoib" : roll < 17 ? "10gige" : "1gige";
  }
  {
    auto rng = field_rng(seed, "engine.knobs");
    s.caching = rng.chance(0.75);
    if (rng.chance(0.4)) {
      // Undersized budgets exercise eviction/recache churn (cache-thrash).
      s.cache_bytes = pick(rng, {1 * kMiB, 4 * kMiB, 16 * kMiB, 64 * kMiB});
    }
    if (rng.chance(0.5)) {
      s.packet_bytes = pick(rng, {64 * kKiB, 128 * kKiB, 256 * kKiB, 1 * kMiB});
    }
    if (rng.chance(0.5)) s.responder_threads = int(rng.range(1, 4));
    s.overlap_reduce = rng.chance(0.85);
  }
  {
    auto rng = field_rng(seed, "task.faults");
    if (rng.chance(0.3)) s.map_failure_prob = 0.02 + 0.13 * rng.uniform();
    if (rng.chance(0.3)) s.straggler_prob = 0.05 + 0.15 * rng.uniform();
    s.speculative = rng.chance(0.5);
  }
  if (s.nodes >= 2) {
    auto rng = field_rng(seed, "shuffle.faults");
    if (rng.chance(0.5)) {
      const int sites = int(rng.range(1, std::min(3, s.nodes - 1)));
      // One host is protected from service-level faults so recovery
      // always has somewhere to land.
      const int protected_host = int(rng.range(1, s.nodes));
      for (int i = 0; i < sites; ++i) {
        FaultSite fault;
        const std::uint64_t roll = rng.below(100);
        fault.kind = roll < 25   ? FaultSite::Kind::kKillTracker
                     : roll < 55 ? FaultSite::Kind::kDropResponses
                     : roll < 85 ? FaultSite::Kind::kStallResponses
                                 : FaultSite::Kind::kDegradeNic;
        if (fault.kind == FaultSite::Kind::kDegradeNic) {
          fault.host = int(rng.range(1, s.nodes));
          fault.at = 20.0 * rng.uniform();
          fault.factor = 0.2 + 0.7 * rng.uniform();
        } else {
          int host = int(rng.range(1, s.nodes - 1));
          if (host >= protected_host) ++host;  // skip the protected host
          fault.host = host;
          switch (fault.kind) {
            case FaultSite::Kind::kKillTracker:
              fault.at = 20.0 * rng.uniform();
              break;
            case FaultSite::Kind::kDropResponses:
              fault.prob = 0.05 + 0.35 * rng.uniform();
              break;
            case FaultSite::Kind::kStallResponses:
              fault.prob = 0.05 + 0.35 * rng.uniform();
              fault.seconds = 1.0 + 7.0 * rng.uniform();
              break;
            default:
              break;
          }
        }
        s.faults.push_back(fault);
      }
    }
  }
  if (s.nodes >= 2) {
    // Disk faults need a peer with clean storage (HDFS failover source,
    // re-execution target), so single-node scenarios stay disk-healthy.
    auto rng = field_rng(seed, "disk.faults");
    if (rng.chance(0.35)) {
      const int sites = int(rng.range(1, 2));
      const int protected_host = int(rng.range(1, s.nodes));
      for (int i = 0; i < sites; ++i) {
        s.faults.push_back(random_disk_site(rng, s.nodes, protected_host));
      }
    }
  }
  {
    // Straggler injection (compute faults): slow or frozen hosts are the
    // scenarios speculative execution exists for, so pair the two —
    // a scenario that draws compute faults also forces speculation on
    // half the time beyond the independent `speculative` draw.
    auto rng = field_rng(seed, "compute.faults");
    if (s.nodes >= 2 && rng.chance(0.3)) {
      const int sites = int(rng.range(1, 2));
      for (int i = 0; i < sites; ++i) {
        s.faults.push_back(random_compute_site(rng, s.nodes));
      }
      if (rng.chance(0.5)) s.speculative = true;
    }
  }
  {
    // Kept rare: each multi-job scenario costs a concurrent run plus a
    // serial comparator on top of the three per-engine runs.
    auto rng = field_rng(seed, "multijob");
    if (rng.chance(0.15)) s.concurrent_jobs = int(rng.range(2, 3));
  }
  {
    auto rng = field_rng(seed, "determinism");
    s.check_determinism = rng.chance(0.125);
  }
  return s;
}

Scenario Scenario::generate_with_disk_faults(std::uint64_t seed) {
  Scenario s = generate(seed);
  if (s.has_disk_faults()) return s;
  if (s.nodes < 2) s.nodes = 2;  // a 1-node scenario carries no faults
  auto rng = field_rng(seed, "disk.faults.forced");
  const int protected_host = int(rng.range(1, s.nodes));
  s.faults.push_back(random_disk_site(rng, s.nodes, protected_host));
  return s;
}

sim::FaultPlan Scenario::build_fault_plan() const {
  sim::FaultPlan plan(seed);
  std::map<int, sim::DiskFault> disk;
  for (const auto& fault : faults) {
    switch (fault.kind) {
      case FaultSite::Kind::kKillTracker:
        plan.kill_tracker(fault.host, fault.at);
        break;
      case FaultSite::Kind::kDropResponses:
        plan.drop_responses(fault.host, fault.prob);
        break;
      case FaultSite::Kind::kStallResponses:
        plan.stall_responses(fault.host, fault.prob, fault.seconds);
        break;
      case FaultSite::Kind::kDegradeNic:
        plan.degrade_nic(fault.host, fault.at, fault.factor);
        break;
      case FaultSite::Kind::kDiskIoErrors:
        disk[fault.host].io_error_prob = fault.prob;
        break;
      case FaultSite::Kind::kDiskCorrupt:
        // One knob drives both directions: reads return flipped bytes,
        // writes silently land corrupt (caught by write-verify).
        disk[fault.host].read_corrupt_prob = fault.prob;
        disk[fault.host].write_corrupt_prob = fault.prob;
        break;
      case FaultSite::Kind::kDiskCacheCorrupt:
        disk[fault.host].cache_corrupt_prob = fault.prob;
        break;
      case FaultSite::Kind::kDiskFull:
        disk[fault.host].full_at = fault.at;
        disk[fault.host].full_duration = fault.seconds;
        break;
      case FaultSite::Kind::kDiskSlow:
        disk[fault.host].slow_at = fault.at;
        disk[fault.host].slow_factor = fault.factor;
        break;
      case FaultSite::Kind::kCpuDegrade:
        plan.degrade_cpu(fault.host, fault.at, fault.factor, fault.seconds);
        break;
      case FaultSite::Kind::kTaskHang:
        plan.hang_tasks(fault.host, fault.at, fault.seconds);
        break;
      case FaultSite::Kind::kTaskSlow:
        plan.slow_tasks(fault.host, fault.at, fault.seconds, fault.factor);
        break;
    }
  }
  for (const auto& [host, fault] : disk) plan.disk_fault(host, fault);
  return plan;
}

bool Scenario::has_shuffle_faults() const {
  return std::any_of(faults.begin(), faults.end(), [](const FaultSite& f) {
    return !is_disk_kind(f.kind) && !is_compute_kind(f.kind);
  });
}

bool Scenario::has_disk_faults() const {
  return std::any_of(faults.begin(), faults.end(), [](const FaultSite& f) {
    return is_disk_kind(f.kind);
  });
}

bool Scenario::has_compute_faults() const {
  return std::any_of(faults.begin(), faults.end(), [](const FaultSite& f) {
    return is_compute_kind(f.kind);
  });
}

Conf Scenario::base_conf() const {
  Conf conf;
  conf.set_bool(mapred::kCachingEnabled, caching);
  if (cache_bytes > 0) conf.set_bytes(mapred::kCacheBytes, cache_bytes);
  if (packet_bytes > 0) conf.set_bytes(mapred::kRdmaPacketBytes, packet_bytes);
  if (responder_threads > 0) {
    conf.set_int(mapred::kResponderThreads, responder_threads);
  }
  conf.set_bool(mapred::kOverlapReduce, overlap_reduce);
  if (map_failure_prob > 0) {
    conf.set_double(mapred::kMapFailureProb, map_failure_prob);
    // Generous budget: aborting the job on an unlucky attempt streak
    // would be a harness false positive, not an engine bug.
    conf.set_int(mapred::kMaxTaskAttempts, 50);
  }
  if (straggler_prob > 0) {
    conf.set_double(mapred::kStragglerProb, straggler_prob);
  }
  conf.set_bool(mapred::kSpeculativeExecution, speculative);
  conf.set_bool(mapred::kReduceSpeculativeExecution, speculative);
  if (has_shuffle_faults() || has_disk_faults() || has_compute_faults()) {
    // Compute faults are included: a 4x-degraded host serves fetches
    // slowly enough that a watchdog could fire, and recovery must be
    // armed wherever a timeout is possible.
    // Recovery must be armed or a killed tracker hangs the job (and an
    // unreadable map output, dropped by the responder, needs the fetch
    // watchdog to trigger re-execution). The timeout is far above any
    // healthy fetch (even 1GigE under incast) so only injected faults
    // ever trip it.
    conf.set_double(mapred::kFetchTimeoutSec, 20.0);
    conf.set_double(mapred::kFetchBackoffBaseSec, 0.1);
    conf.set_double(mapred::kFetchBackoffMaxSec, 1.0);
    conf.set_int(mapred::kBlacklistFailures, 2);
    conf.set_int(mapred::kFetchMaxRetries, 200);
  }
  return conf;
}

Json Scenario::to_json() const {
  Json j = Json::object();
  j.set("seed", Json(std::int64_t(seed)));
  j.set("nodes", Json(std::int64_t(nodes)));
  j.set("disks", Json(std::int64_t(disks)));
  j.set("ssd", Json(ssd));
  j.set("workload", Json(workload));
  j.set("modeled_bytes", Json(std::int64_t(modeled_bytes)));
  j.set("block_bytes", Json(std::int64_t(block_bytes)));
  j.set("target_real_bytes", Json(std::int64_t(target_real_bytes)));
  j.set("vanilla_profile", Json(vanilla_profile));
  j.set("caching", Json(caching));
  j.set("cache_bytes", Json(std::int64_t(cache_bytes)));
  j.set("packet_bytes", Json(std::int64_t(packet_bytes)));
  j.set("responder_threads", Json(std::int64_t(responder_threads)));
  j.set("overlap_reduce", Json(overlap_reduce));
  j.set("map_failure_prob", Json(map_failure_prob));
  j.set("straggler_prob", Json(straggler_prob));
  j.set("speculative", Json(speculative));
  j.set("concurrent_jobs", Json(std::int64_t(concurrent_jobs)));
  j.set("check_determinism", Json(check_determinism));
  Json sites = Json::array();
  for (const auto& fault : faults) {
    Json site = Json::object();
    site.set("kind", Json(fault_kind_name(fault.kind)));
    site.set("host", Json(std::int64_t(fault.host)));
    site.set("at", Json(fault.at));
    site.set("prob", Json(fault.prob));
    site.set("seconds", Json(fault.seconds));
    site.set("factor", Json(fault.factor));
    sites.push_back(std::move(site));
  }
  j.set("faults", std::move(sites));
  return j;
}

Result<Scenario> Scenario::from_json(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("scenario: not a JSON object");
  }
  const auto num = [&](const char* key, double dflt) {
    const Json* v = json.find(key);
    return v != nullptr && v->is_number() ? v->as_double() : dflt;
  };
  const auto boolean = [&](const char* key, bool dflt) {
    const Json* v = json.find(key);
    return v != nullptr && v->is_bool() ? v->as_bool() : dflt;
  };
  const auto str = [&](const char* key, const std::string& dflt) {
    const Json* v = json.find(key);
    return v != nullptr && v->is_string() ? v->as_string() : dflt;
  };

  Scenario s;
  s.seed = std::uint64_t(num("seed", 1));
  s.nodes = int(num("nodes", 3));
  s.disks = int(num("disks", 1));
  s.ssd = boolean("ssd", false);
  s.workload = str("workload", "terasort");
  s.modeled_bytes = std::uint64_t(num("modeled_bytes", double(256 * kMiB)));
  s.block_bytes = std::uint64_t(num("block_bytes", double(32 * kMiB)));
  s.target_real_bytes =
      std::uint64_t(num("target_real_bytes", double(1 * kMiB)));
  s.vanilla_profile = str("vanilla_profile", "ipoib");
  s.caching = boolean("caching", true);
  s.cache_bytes = std::uint64_t(num("cache_bytes", 0));
  s.packet_bytes = std::uint64_t(num("packet_bytes", 0));
  s.responder_threads = int(num("responder_threads", 0));
  s.overlap_reduce = boolean("overlap_reduce", true);
  s.map_failure_prob = num("map_failure_prob", 0.0);
  s.straggler_prob = num("straggler_prob", 0.0);
  s.speculative = boolean("speculative", false);
  // Default 1 keeps every pre-multitenant corpus file loadable.
  s.concurrent_jobs = int(num("concurrent_jobs", 1));
  s.check_determinism = boolean("check_determinism", false);

  if (s.nodes < 1) return Status::InvalidArgument("scenario: nodes < 1");
  if (s.disks < 1 || s.disks > 2) {
    return Status::InvalidArgument("scenario: disks outside [1, 2]");
  }
  if (s.workload != "terasort" && s.workload != "sort") {
    return Status::InvalidArgument("scenario: unknown workload " + s.workload);
  }
  if (s.block_bytes == 0 || s.modeled_bytes == 0) {
    return Status::InvalidArgument("scenario: zero workload size");
  }
  if (s.concurrent_jobs < 1 || s.concurrent_jobs > 8) {
    return Status::InvalidArgument("scenario: concurrent_jobs outside [1, 8]");
  }
  if (s.vanilla_profile != "ipoib" && s.vanilla_profile != "10gige" &&
      s.vanilla_profile != "1gige") {
    return Status::InvalidArgument("scenario: unknown vanilla profile " +
                                   s.vanilla_profile);
  }

  if (const Json* sites = json.find("faults");
      sites != nullptr && sites->is_array()) {
    for (const Json& site : sites->elements()) {
      FaultSite fault;
      const std::string kind = site.find("kind") != nullptr
                                   ? site.find("kind")->as_string()
                                   : "";
      if (kind == "kill_tracker") {
        fault.kind = FaultSite::Kind::kKillTracker;
      } else if (kind == "drop_responses") {
        fault.kind = FaultSite::Kind::kDropResponses;
      } else if (kind == "stall_responses") {
        fault.kind = FaultSite::Kind::kStallResponses;
      } else if (kind == "degrade_nic") {
        fault.kind = FaultSite::Kind::kDegradeNic;
      } else if (kind == "disk_io_errors") {
        fault.kind = FaultSite::Kind::kDiskIoErrors;
      } else if (kind == "disk_corrupt") {
        fault.kind = FaultSite::Kind::kDiskCorrupt;
      } else if (kind == "disk_cache_corrupt") {
        fault.kind = FaultSite::Kind::kDiskCacheCorrupt;
      } else if (kind == "disk_full") {
        fault.kind = FaultSite::Kind::kDiskFull;
      } else if (kind == "disk_slow") {
        fault.kind = FaultSite::Kind::kDiskSlow;
      } else if (kind == "cpu_degrade") {
        fault.kind = FaultSite::Kind::kCpuDegrade;
      } else if (kind == "task_hang") {
        fault.kind = FaultSite::Kind::kTaskHang;
      } else if (kind == "task_slow") {
        fault.kind = FaultSite::Kind::kTaskSlow;
      } else {
        return Status::InvalidArgument("scenario: unknown fault kind " + kind);
      }
      const auto site_num = [&](const char* key, double dflt) {
        const Json* v = site.find(key);
        return v != nullptr && v->is_number() ? v->as_double() : dflt;
      };
      fault.host = int(site_num("host", 1));
      fault.at = site_num("at", 0.0);
      fault.prob = site_num("prob", 0.0);
      fault.seconds = site_num("seconds", 0.0);
      fault.factor = site_num("factor", 1.0);
      if (fault.host < 1 || fault.host > s.nodes) {
        return Status::InvalidArgument("scenario: fault host outside cluster");
      }
      if (fault.prob < 0.0 || fault.prob > 1.0) {
        return Status::InvalidArgument("scenario: fault prob outside [0, 1]");
      }
      if (fault.seconds < 0.0) {
        return Status::InvalidArgument("scenario: fault seconds < 0");
      }
      if (fault.factor <= 0.0) {
        return Status::InvalidArgument("scenario: fault factor <= 0");
      }
      if (fault.kind == FaultSite::Kind::kTaskHang && fault.seconds <= 0.0) {
        // A permanent hang would never complete: fail at load time with
        // the file named.
        return Status::InvalidArgument(
            "scenario: task_hang requires seconds > 0");
      }
      s.faults.push_back(fault);
    }
  }
  return s;
}

std::vector<Scenario> Scenario::shrink_candidates() const {
  std::vector<Scenario> out;
  const auto add = [&](Scenario candidate) {
    if (candidate == *this) return;
    if (!has_clean_tracker(candidate.nodes, candidate.faults)) return;
    out.push_back(std::move(candidate));
  };

  // Remove one fault site at a time (most informative shrink first).
  for (size_t i = 0; i < faults.size(); ++i) {
    Scenario candidate = *this;
    candidate.faults.erase(candidate.faults.begin() + long(i));
    add(std::move(candidate));
  }
  // Fewer nodes; faults referencing removed hosts go with them.
  if (nodes > 1) {
    Scenario candidate = *this;
    candidate.nodes = nodes - 1;
    std::erase_if(candidate.faults, [&](const FaultSite& fault) {
      return fault.host > candidate.nodes;
    });
    add(std::move(candidate));
  }
  // Fewer maps: smaller workload, then coarser blocks.
  if (modeled_bytes / block_bytes > 1) {
    Scenario candidate = *this;
    candidate.modeled_bytes = std::max<std::uint64_t>(
        candidate.block_bytes, candidate.modeled_bytes / 2);
    add(std::move(candidate));
    candidate = *this;
    candidate.block_bytes =
        std::min(candidate.modeled_bytes, candidate.block_bytes * 2);
    add(std::move(candidate));
  }
  if (target_real_bytes > 128 * kKiB) {
    Scenario candidate = *this;
    candidate.target_real_bytes /= 2;
    add(std::move(candidate));
  }
  // Strip secondary sources of complexity one at a time.
  if (disks > 1 || ssd) {
    Scenario candidate = *this;
    candidate.disks = 1;
    candidate.ssd = false;
    add(std::move(candidate));
  }
  if (map_failure_prob > 0 || straggler_prob > 0 || speculative) {
    Scenario candidate = *this;
    candidate.map_failure_prob = 0;
    candidate.straggler_prob = 0;
    candidate.speculative = false;
    add(std::move(candidate));
  }
  if (cache_bytes != 0 || packet_bytes != 0 || responder_threads != 0) {
    Scenario candidate = *this;
    candidate.cache_bytes = 0;
    candidate.packet_bytes = 0;
    candidate.responder_threads = 0;
    add(std::move(candidate));
  }
  if (!overlap_reduce) {
    Scenario candidate = *this;
    candidate.overlap_reduce = true;
    add(std::move(candidate));
  }
  if (vanilla_profile != "ipoib") {
    Scenario candidate = *this;
    candidate.vanilla_profile = "ipoib";
    add(std::move(candidate));
  }
  if (concurrent_jobs > 1) {
    Scenario candidate = *this;
    candidate.concurrent_jobs = 1;
    add(std::move(candidate));
    if (concurrent_jobs > 2) {
      candidate = *this;
      candidate.concurrent_jobs = concurrent_jobs - 1;
      add(std::move(candidate));
    }
  }
  if (check_determinism) {
    Scenario candidate = *this;
    candidate.check_determinism = false;
    add(std::move(candidate));
  }
  return out;
}

std::string Scenario::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "seed=%llu %s %dn %lluMiB blocks=%lluMiB faults=%zu%s%s",
                static_cast<unsigned long long>(seed), workload.c_str(), nodes,
                static_cast<unsigned long long>(modeled_bytes / kMiB),
                static_cast<unsigned long long>(block_bytes / kMiB),
                faults.size(),
                concurrent_jobs > 1
                    ? (" x" + std::to_string(concurrent_jobs) + "jobs").c_str()
                    : "",
                check_determinism ? " +determinism" : "");
  return buf;
}

}  // namespace hmr::simfuzz

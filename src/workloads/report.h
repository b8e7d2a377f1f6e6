// Post-run reporting: what one job did, as Hadoop prints it.
#pragma once

#include <string>

#include "mapred/types.h"

namespace hmr::workloads {

// Hadoop-style job summary: phases, counters, shuffle volume.
std::string job_report(const mapred::JobResult& result);

}  // namespace hmr::workloads

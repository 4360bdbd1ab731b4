#include "src/sim/sim_report.h"

#include "src/common/strings.h"

namespace maya {

std::string SimReport::Summary() const {
  return StrFormat(
      "total %s | comm %s (exposed %s) | host %s | peak mem %s | %zu workers | %zu events"
      " | %s",
      HumanDuration(total_time_us).c_str(), HumanDuration(comm_time_us).c_str(),
      HumanDuration(exposed_comm_us).c_str(), HumanDuration(host_time_us).c_str(),
      HumanBytes(static_cast<double>(peak_memory_bytes)).c_str(), workers.size(),
      events_processed, stats.cache_hits > 0 ? "sim-cache hit" : "replayed");
}

}  // namespace maya

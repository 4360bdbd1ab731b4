// Memory what-if analysis: which GPT-3 18.4B recipes fit a 32xH100 cluster?
// The emulator's physical resource tracking detects OOM exactly where real
// hardware would (§4.1), so feasibility boundaries cost milliseconds to map
// — no cluster time, no crashed jobs.
#include <cstdio>

#include "src/dlf/worker_launcher.h"
#include "src/models/model_zoo.h"

int main() {
  using namespace maya;

  const ClusterSpec cluster = H100Cluster(32);
  const ModelConfig model = Gpt3_18_4B();
  std::printf("feasibility map: %s on %s\n\n", model.Summary().c_str(),
              cluster.ToString().c_str());
  std::printf("%-6s %-6s %-10s %-12s %s\n", "tp", "pp", "recompute", "result",
              "peak memory");

  for (int tp : {2, 4, 8}) {
    for (int pp : {1, 2, 4}) {
      for (bool recompute : {false, true}) {
        TrainConfig config;
        config.global_batch_size = 512;
        config.tensor_parallel = tp;
        config.pipeline_parallel = pp;
        config.microbatch_multiplier = 8;
        config.sequence_parallel = true;
        config.activation_recomputation = recompute;
        if (!config.Validate(model, cluster).ok()) {
          continue;
        }
        LaunchOptions options;
        options.virtual_folds = true;
        const Result<LaunchResult> launched = EmulateJob(model, config, cluster, options);
        if (!launched.ok()) {
          std::printf("%-6d %-6d %-10s %-12s\n", tp, pp, recompute ? "yes" : "no",
                      "error");
          continue;
        }
        if (launched->oom) {
          std::printf("%-6d %-6d %-10s %-12s (%s)\n", tp, pp, recompute ? "yes" : "no",
                      "OOM", launched->oom_detail.c_str());
          continue;
        }
        uint64_t peak = 0;
        for (const WorkerTrace& trace : launched->traces) {
          peak = std::max(peak, trace.peak_device_bytes);
        }
        std::printf("%-6d %-6d %-10s %-12s %.1f GiB of 80 GiB\n", tp, pp,
                    recompute ? "yes" : "no", "fits", peak / (1024.0 * 1024.0 * 1024.0));
      }
    }
  }
  return 0;
}

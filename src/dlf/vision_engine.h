// Convolutional vision training engine (ResNet-family) with DistributedData-
// Parallel and optional torch.compile — the Fig. 10 workload (ResNet152 on
// 8xA40). Convolutions go through the full stateful cuDNN descriptor
// protocol so the emulator's context-aware modeling is exercised end to end.
#ifndef SRC_DLF_VISION_ENGINE_H_
#define SRC_DLF_VISION_ENGINE_H_

#include <vector>

#include "src/dlf/comm_registry.h"
#include "src/dlf/rank_plan.h"
#include "src/dlf/train_config.h"
#include "src/dlf/op_emitter.h"

namespace maya {

// Const-after-construction like the other engines: RunWorker is safe to call
// concurrently for distinct ranks from the parallel launcher.
class VisionEngine {
 public:
  VisionEngine(const ModelConfig& model, const TrainConfig& config, const ClusterSpec& cluster);

  Status RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                   JobCommRegistry* registry) const;

  // Registry-only pre-registration: the vision engine's ranks are pure
  // data-parallel twins sharing one world communicator.
  void RegisterComms(int rank, JobCommRegistry* registry) const;

  // Hyperscale mode: one equivalence class (pure data parallelism) and one
  // world communicator — see FsdpEngine for the rationale.
  std::vector<RankClass> EquivalenceClasses() const;
  std::vector<CommSpec> DescribeComms(int rank) const;

 private:
  ModelConfig model_;
  TrainConfig config_;
  ClusterSpec cluster_;
};

}  // namespace maya

#endif  // SRC_DLF_VISION_ENGINE_H_

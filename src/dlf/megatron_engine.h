// Megatron-style 3D-parallel training engine.
//
// RunWorker() executes one training iteration for a single rank against a
// DeviceApi — the "unmodified training script" of the paper's workflow. It
// performs real framework work: allocates parameter/gradient/optimizer
// buffers through cudaMalloc (so OOM surfaces exactly where it would on
// hardware), initializes NCCL communicators for its tensor/data/pipeline
// groups, runs the 1F1B schedule (interleaved when virtual stages > 1) with
// p2p activation/grad transfers on dedicated streams synchronized by CUDA
// events, overlaps bucketed data-parallel gradient collectives with the
// remaining backward work, and applies the (optionally ZeRO-sharded)
// optimizer.
#ifndef SRC_DLF_MEGATRON_ENGINE_H_
#define SRC_DLF_MEGATRON_ENGINE_H_

#include <vector>

#include "src/dlf/comm_registry.h"
#include "src/dlf/megatron_layout.h"
#include "src/dlf/rank_plan.h"
#include "src/dlf/train_config.h"
#include "src/dlf/transformer_ops.h"

namespace maya {

// Engines hold only immutable configuration after construction: RunWorker is
// const and safe to call concurrently for distinct ranks (the parallel
// launcher drives one engine instance from many threads).
class MegatronEngine {
 public:
  MegatronEngine(const ModelConfig& model, const TrainConfig& config, const ClusterSpec& cluster);

  const MegatronLayout& layout() const { return layout_; }

  // Runs communicator bootstrap + one training iteration for `rank`.
  // Returns OutOfMemory when the configuration does not fit the device.
  Status RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                   JobCommRegistry* registry) const;

  // Registers every logical communicator name `rank` will use, in exactly
  // the order RunWorker would first use them, without touching any emulator
  // state. Running this for all ranks in rank order pins the name -> unique
  // id assignment to the sequential-emulation order, so a subsequent
  // parallel launch produces bit-identical traces.
  void RegisterComms(int rank, JobCommRegistry* registry) const;

  // Virtual folds (hyperscale mode, §7.4): the analytic rank-equivalence
  // classes — one per pipeline stage, since TP and DP twins within a stage
  // execute the same script with the same jitter stream. O(pp) to compute
  // regardless of world size.
  std::vector<RankClass> EquivalenceClasses() const;

  // Full membership of every communicator `rank` initializes, in exactly
  // InitComms' first-use order, with members listed by rank_in_comm. Lets
  // the launcher resolve comm groups analytically for ranks it never
  // emulates.
  std::vector<CommSpec> DescribeComms(int rank) const;

  // Local (per-rank) parameter count, including embedding/head shards.
  int64_t LocalParams(int rank) const;

 private:
  struct Ctx;

  Status Setup(Ctx& ctx) const;
  Status InitComms(Ctx& ctx) const;
  Status AllocateState(Ctx& ctx) const;
  Status RunIteration(Ctx& ctx) const;
  Status ForwardStep(Ctx& ctx, int virtual_index) const;
  Status BackwardStep(Ctx& ctx, int virtual_index) const;
  Status EmitChunkGradSync(Ctx& ctx, int chunk) const;
  Status OptimizerStep(Ctx& ctx) const;

  ModelConfig model_;
  TrainConfig config_;
  ClusterSpec cluster_;
  MegatronLayout layout_;
};

}  // namespace maya

#endif  // SRC_DLF_MEGATRON_ENGINE_H_

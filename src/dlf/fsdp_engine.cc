#include "src/dlf/fsdp_engine.h"

#include <algorithm>
#include <vector>

#include "src/common/strings.h"
#include "src/common/units.h"

namespace maya {
namespace {

constexpr uint64_t kFrameworkReserveBytes = 5ULL * kGiB / 4;

}  // namespace

FsdpEngine::FsdpEngine(const ModelConfig& model, const TrainConfig& config,
                       const ClusterSpec& cluster)
    : model_(model), config_(config), cluster_(cluster) {
  CHECK(config_.Validate(model_, cluster_).ok()) << "invalid config: " << config_.Summary();
  CHECK(model_.family != ModelFamily::kResNet) << "use VisionEngine for conv models";
}

int FsdpEngine::effective_zero_stage() const {
  switch (config_.framework) {
    case ParallelFramework::kDdp:
      return 0;
    case ParallelFramework::kFsdp:
      return 3;
    case ParallelFramework::kDeepSpeed:
      return config_.zero_stage;
    case ParallelFramework::kMegatron:
      break;
  }
  CHECK(false) << "FsdpEngine used with the Megatron framework";
  return 0;
}

void FsdpEngine::RegisterComms(int rank, JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  (void)rank;
  if (cluster_.total_gpus() > 1) {
    registry->IdFor("fsdp_world");
  }
}

std::vector<RankClass> FsdpEngine::EquivalenceClasses() const {
  RankClass cls;
  cls.representative = 0;
  cls.members.AddSpan(0, cluster_.total_gpus(), 1);
  return {std::move(cls)};
}

std::vector<CommSpec> FsdpEngine::DescribeComms(int rank) const {
  (void)rank;
  const int world = cluster_.total_gpus();
  if (world <= 1) {
    return {};
  }
  CommSpec world_comm;
  world_comm.name = "fsdp_world";
  world_comm.members.resize(static_cast<size_t>(world));
  for (int member = 0; member < world; ++member) {
    world_comm.members[static_cast<size_t>(member)] = member;
  }
  return {std::move(world_comm)};
}

Status FsdpEngine::RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                             JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  HostCostModel costs;
  if (config_.torch_compile) {
    costs = costs.Compiled();
  }
  // Every rank runs the same data-parallel script (equivalence class = rank
  // 0), so host jitter is seeded class-wide: twins measure identical delays
  // and deduplication is exactly lossless (see MegatronEngine::RunWorker).
  OpEmitter emitter(api, clock, costs, SplitMix64(0xf5d9ULL));
  MAYA_RETURN_IF_ERROR(emitter.Init());

  const int world = cluster_.total_gpus();
  const int zero = effective_zero_stage();

  Result<StreamHandle> compute_result = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(compute_result.status());
  const StreamHandle compute = *compute_result;
  Result<StreamHandle> comm_result = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(comm_result.status());
  const StreamHandle comm_stream = *comm_result;
  Result<StreamHandle> offload_result = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(offload_result.status());
  const StreamHandle offload_stream = *offload_result;

  Result<EventHandle> ev_result = emitter.CreateEvent();
  MAYA_RETURN_IF_ERROR(ev_result.status());
  const EventHandle ev_comm = *ev_result;
  Result<EventHandle> ev2_result = emitter.CreateEvent();
  MAYA_RETURN_IF_ERROR(ev2_result.status());
  const EventHandle ev_ready = *ev2_result;

  NcclComm world_comm;
  if (world > 1) {
    Result<NcclComm> comm =
        emitter.CommInit(world, registry->IdFor("fsdp_world"), rank);
    MAYA_RETURN_IF_ERROR(comm.status());
    world_comm = *comm;
  }

  TransformerDims dims;
  dims.seq = model_.seq_length;
  dims.mbs = config_.microbatch_size(world);
  dims.hidden = model_.hidden_size;
  dims.heads = model_.num_heads;
  dims.ffn_hidden = model_.hidden_size * model_.ffn_multiplier;
  dims.vocab = model_.vocab_size;
  dims.tp = 1;
  dims.sequence_parallel = false;
  dims.compiled = config_.torch_compile;

  const int64_t layer_params = TransformerLayerParams(dims);
  const int64_t total_params = static_cast<int64_t>(model_.ParameterCount());
  const int64_t shard = (total_params + world - 1) / world;

  // ---- State allocation (what ZeRO stages actually shard) -------------------
  MAYA_RETURN_IF_ERROR(emitter.Malloc(kFrameworkReserveBytes).status());
  const int64_t param_elems = zero >= 3 ? shard : total_params;
  const int64_t grad_elems = zero >= 2 ? shard : total_params;
  const int64_t opt_elems = zero >= 1 ? shard : total_params;
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(param_elems) * 2).status());
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(grad_elems) * 4).status());
  for (int state = 0; state < 3; ++state) {  // master + exp_avg + exp_avg_sq
    MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(opt_elems) * 4).status());
  }

  const uint64_t act_bytes = TransformerActivationBytes(dims, config_.activation_recomputation);
  const int64_t layers = model_.num_layers;
  TransformerLayerOps ops(&emitter, dims, world_comm, compute);

  DevPtr staging = 0;
  {
    Result<DevPtr> staging_result =
        emitter.Malloc(static_cast<uint64_t>(dims.tokens()) * 8);
    MAYA_RETURN_IF_ERROR(staging_result.status());
    staging = *staging_result;
  }
  DevPtr host_buffer = 0;
  if (config_.activation_offload) {
    Result<DevPtr> host = emitter.HostAlloc(act_bytes * static_cast<uint64_t>(layers));
    MAYA_RETURN_IF_ERROR(host.status());
    host_buffer = *host;
  }

  // Transient per-layer unsharded parameter buffers (ZeRO-3 / FSDP).
  auto gather_layer_params = [&]() -> Status {
    if (zero < 3 || world <= 1) {
      return Status::Ok();
    }
    MAYA_RETURN_IF_ERROR(emitter.AllGather(
        static_cast<uint64_t>((layer_params + world - 1) / world), DType::kBf16, world_comm,
        comm_stream));
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_comm, comm_stream));
    return emitter.WaitEvent(compute, ev_comm);
  };

  const int microbatches = config_.num_microbatches();
  std::vector<DevPtr> act_buffers;

  for (int mb = 0; mb < microbatches; ++mb) {
    emitter.ChargeGlue(costs.microbatch_glue_us);
    MAYA_RETURN_IF_ERROR(emitter.MemcpyAsync(staging, 0x1000,
                                             static_cast<uint64_t>(dims.tokens()) * 8,
                                             MemcpyKind::kHostToDevice, compute));
    MAYA_RETURN_IF_ERROR(ops.EmbeddingForward());
    // ---- Forward ------------------------------------------------------------
    for (int64_t layer = 0; layer < layers; ++layer) {
      MAYA_RETURN_IF_ERROR(gather_layer_params());
      Result<DevPtr> act = emitter.Malloc(act_bytes);
      MAYA_RETURN_IF_ERROR(act.status());
      act_buffers.push_back(*act);
      MAYA_RETURN_IF_ERROR(ops.Forward());
      if (config_.activation_offload) {
        // Activations stream out to pinned host memory and back in backward.
        MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_ready, compute));
        MAYA_RETURN_IF_ERROR(emitter.WaitEvent(offload_stream, ev_ready));
        MAYA_RETURN_IF_ERROR(emitter.MemcpyAsync(host_buffer, act_buffers.back(), act_bytes,
                                                 MemcpyKind::kDeviceToHost, offload_stream));
        MAYA_RETURN_IF_ERROR(emitter.Free(act_buffers.back()));
        act_buffers.back() = 0;
      }
    }
    Result<DevPtr> logits =
        emitter.Malloc(static_cast<uint64_t>(dims.tokens()) * dims.vocab * 6);
    MAYA_RETURN_IF_ERROR(logits.status());
    MAYA_RETURN_IF_ERROR(ops.HeadForwardAndLoss());
    MAYA_RETURN_IF_ERROR(ops.HeadBackward());
    MAYA_RETURN_IF_ERROR(emitter.Free(*logits));
    // ---- Backward -----------------------------------------------------------
    for (int64_t layer = layers - 1; layer >= 0; --layer) {
      if (config_.activation_offload) {
        Result<DevPtr> act = emitter.Malloc(act_bytes);
        MAYA_RETURN_IF_ERROR(act.status());
        act_buffers[static_cast<size_t>(layer)] = *act;
        MAYA_RETURN_IF_ERROR(emitter.MemcpyAsync(act_buffers[static_cast<size_t>(layer)],
                                                 host_buffer, act_bytes,
                                                 MemcpyKind::kHostToDevice, offload_stream));
        MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_ready, offload_stream));
        MAYA_RETURN_IF_ERROR(emitter.WaitEvent(compute, ev_ready));
      }
      MAYA_RETURN_IF_ERROR(gather_layer_params());
      if (config_.activation_recomputation) {
        MAYA_RETURN_IF_ERROR(ops.Forward());
      }
      MAYA_RETURN_IF_ERROR(ops.Backward());
      if (zero >= 2 && world > 1) {
        // ZeRO-2/3: shard gradients as soon as the layer finishes.
        MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_ready, compute));
        MAYA_RETURN_IF_ERROR(emitter.WaitEvent(comm_stream, ev_ready));
        MAYA_RETURN_IF_ERROR(emitter.ReduceScatter(
            static_cast<uint64_t>((layer_params + world - 1) / world), DType::kFp32,
            world_comm, comm_stream));
      }
      MAYA_RETURN_IF_ERROR(emitter.Free(act_buffers[static_cast<size_t>(layer)]));
      act_buffers[static_cast<size_t>(layer)] = 0;
    }
    MAYA_RETURN_IF_ERROR(ops.EmbeddingBackward());
    act_buffers.clear();
  }

  // ---- Gradient synchronization + optimizer ----------------------------------
  if (world > 1 && zero <= 1) {
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_ready, compute));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(comm_stream, ev_ready));
    if (zero == 1) {
      MAYA_RETURN_IF_ERROR(
          emitter.ReduceScatter(static_cast<uint64_t>(shard), DType::kFp32, world_comm,
                                comm_stream));
    } else {
      MAYA_RETURN_IF_ERROR(emitter.AllReduce(static_cast<uint64_t>(total_params), DType::kFp32,
                                             world_comm, comm_stream));
    }
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_comm, comm_stream));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(compute, ev_comm));
  }
  emitter.ChargeGlue(costs.optimizer_glue_us);
  MAYA_RETURN_IF_ERROR(
      emitter.LaunchKernel(MakeReduce(opt_elems, DType::kFp32), compute));
  MAYA_RETURN_IF_ERROR(
      emitter.LaunchKernel(MakeOptimizerApply(opt_elems, 4, DType::kFp32), compute));
  if (world > 1 && (zero == 1 || zero == 2)) {
    // Re-gather the updated parameters (ZeRO-3/FSDP keeps them sharded).
    MAYA_RETURN_IF_ERROR(
        emitter.AllGather(static_cast<uint64_t>(shard), DType::kBf16, world_comm, compute));
  }
  return emitter.DeviceSync();
}

}  // namespace maya

#include "src/dlf/megatron_engine.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/strings.h"
#include "src/common/units.h"

namespace maya {
namespace {

// Framework baseline reservation: CUDA context, cuBLAS workspaces, NCCL
// buffers and allocator slack. Present on every rank regardless of model.
constexpr uint64_t kFrameworkReserveBytes = 5ULL * kGiB / 4;  // 1.25 GiB

}  // namespace

struct MegatronEngine::Ctx {
  int rank = -1;
  OpEmitter emitter;
  JobCommRegistry* registry = nullptr;

  int stage = 0;
  int tp_idx = 0;
  int dp_idx = 0;
  int chunks = 1;            // virtual pipeline chunks held by this rank
  int64_t layers_per_chunk = 0;
  TransformerDims dims;
  int64_t local_params = 0;        // whole rank
  int64_t chunk_params = 0;        // transformer layers of one chunk
  int64_t boundary_elems = 0;      // activation elements crossing stage links

  // Streams.
  StreamHandle compute;
  StreamHandle fwd_in, fwd_out, bwd_in, bwd_out;  // one per link direction
  StreamHandle dp_stream;

  // Events (reused across microbatches; versions disambiguate).
  EventHandle ev_recv_act, ev_recv_grad, ev_act_ready, ev_grad_ready;
  std::vector<EventHandle> ev_dp_done;  // per chunk
  EventHandle ev_opt_done;

  // Communicators.
  NcclComm tp_comm, dp_comm;
  NcclComm fwd_prev, fwd_next, bwd_prev, bwd_next;
  bool has_fwd_prev = false, has_fwd_next = false;
  bool has_bwd_prev = false, has_bwd_next = false;
  int next_rank = -1, prev_rank = -1;

  // Activation buffers per (chunk, microbatch); logits buffer per microbatch.
  std::unordered_map<int64_t, DevPtr> act_buffers;
  std::unordered_map<int64_t, DevPtr> logits_buffers;
  DevPtr input_staging = 0;  // device destination for H2D token copies

  std::vector<int> chunk_backward_count;

  Ctx(DeviceApi* api, VirtualHostClock* clock, const HostCostModel& costs, uint64_t seed)
      : emitter(api, clock, costs, seed) {}
};

MegatronEngine::MegatronEngine(const ModelConfig& model, const TrainConfig& config,
                               const ClusterSpec& cluster)
    : model_(model),
      config_(config),
      cluster_(cluster),
      layout_(cluster.total_gpus(), config.tensor_parallel, config.pipeline_parallel) {
  CHECK(config_.Validate(model_, cluster_).ok()) << "invalid config: "
                                                 << config_.Summary();
}

int64_t MegatronEngine::LocalParams(int rank) const {
  TransformerDims dims;
  dims.hidden = model_.hidden_size;
  dims.ffn_hidden = model_.hidden_size * model_.ffn_multiplier;
  dims.tp = config_.tensor_parallel;
  dims.seq = model_.seq_length;
  dims.mbs = 1;
  dims.heads = model_.num_heads;
  const int64_t layers_local =
      model_.num_layers / config_.pipeline_parallel;
  int64_t params = layers_local * TransformerLayerParams(dims);
  const int stage = layout_.pp_stage(rank);
  if (stage == 0) {
    params += model_.vocab_size * model_.hidden_size / config_.tensor_parallel;
  }
  if (stage == config_.pipeline_parallel - 1) {
    params += model_.vocab_size * model_.hidden_size / config_.tensor_parallel;
  }
  return params;
}

Status MegatronEngine::InitComms(Ctx& ctx) const {
  JobCommRegistry& registry = *ctx.registry;
  const int rank = ctx.rank;
  const int pp = config_.pipeline_parallel;

  if (config_.tensor_parallel > 1) {
    const NcclUniqueId id = registry.IdFor(StrFormat("tp_g%d", layout_.TpGroupIndex(rank)));
    Result<NcclComm> comm =
        ctx.emitter.CommInit(config_.tensor_parallel, id, layout_.tp_index(rank));
    MAYA_RETURN_IF_ERROR(comm.status());
    ctx.tp_comm = *comm;
  }
  if (layout_.dp() > 1) {
    const NcclUniqueId id = registry.IdFor(StrFormat("dp_g%d", layout_.DpGroupIndex(rank)));
    Result<NcclComm> comm = ctx.emitter.CommInit(layout_.dp(), id, layout_.dp_index(rank));
    MAYA_RETURN_IF_ERROR(comm.status());
    ctx.dp_comm = *comm;
  }
  if (pp > 1) {
    const bool ring = config_.virtual_pipeline_stages > 1;  // wraparound links
    const int stage = ctx.stage;
    const int prev = (stage - 1 + pp) % pp;
    auto link_name = [&](const char* kind, int link) {
      return StrFormat("%s_t%d_d%d_l%d", kind, ctx.tp_idx, ctx.dp_idx, link);
    };
    // Forward link `l` carries activations stage l -> (l+1)%pp; I am sender
    // (role 0) on link `stage` and receiver (role 1) on link `prev`.
    if (ring || stage < pp - 1) {
      Result<NcclComm> comm =
          ctx.emitter.CommInit(2, registry.IdFor(link_name("ppf", stage)), 0);
      MAYA_RETURN_IF_ERROR(comm.status());
      ctx.fwd_next = *comm;
      ctx.has_fwd_next = true;
    }
    if (ring || stage > 0) {
      Result<NcclComm> comm =
          ctx.emitter.CommInit(2, registry.IdFor(link_name("ppf", prev)), 1);
      MAYA_RETURN_IF_ERROR(comm.status());
      ctx.fwd_prev = *comm;
      ctx.has_fwd_prev = true;
    }
    // Backward link `l` carries gradients stage (l+1)%pp -> l; I am sender
    // (role 0) on link `prev` and receiver (role 1) on link `stage`.
    if (ring || stage > 0) {
      Result<NcclComm> comm =
          ctx.emitter.CommInit(2, registry.IdFor(link_name("ppb", prev)), 0);
      MAYA_RETURN_IF_ERROR(comm.status());
      ctx.bwd_prev = *comm;
      ctx.has_bwd_prev = true;
    }
    if (ring || stage < pp - 1) {
      Result<NcclComm> comm =
          ctx.emitter.CommInit(2, registry.IdFor(link_name("ppb", stage)), 1);
      MAYA_RETURN_IF_ERROR(comm.status());
      ctx.bwd_next = *comm;
      ctx.has_bwd_next = true;
    }
    ctx.next_rank = layout_.RankOf(ctx.tp_idx, ctx.dp_idx, (stage + 1) % pp);
    ctx.prev_rank = layout_.RankOf(ctx.tp_idx, ctx.dp_idx, prev);
  }
  return Status::Ok();
}

Status MegatronEngine::AllocateState(Ctx& ctx) const {
  OpEmitter& emitter = ctx.emitter;
  // Framework / context reservation.
  MAYA_RETURN_IF_ERROR(emitter.Malloc(kFrameworkReserveBytes).status());

  const int64_t p_local = ctx.local_params;
  const int dp = layout_.dp();
  const int64_t opt_shard =
      config_.distributed_optimizer ? (p_local + dp - 1) / dp : p_local;

  // bf16 parameters + fp32 main gradients, bucketed per chunk.
  for (int chunk = 0; chunk < ctx.chunks; ++chunk) {
    MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(ctx.chunk_params) * 2).status());
    MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(ctx.chunk_params) * 4).status());
  }
  const int64_t embedding_params = p_local - ctx.chunk_params * ctx.chunks;
  if (embedding_params > 0) {
    MAYA_RETURN_IF_ERROR(
        emitter.Malloc(static_cast<uint64_t>(embedding_params) * 2).status());
    MAYA_RETURN_IF_ERROR(
        emitter.Malloc(static_cast<uint64_t>(embedding_params) * 4).status());
  }
  // fp32 master params + Adam moments (sharded under the distributed
  // optimizer: the ZeRO-1 memory saving).
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(opt_shard) * 4).status());
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(opt_shard) * 4).status());
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(opt_shard) * 4).status());

  // Input token staging buffer.
  Result<DevPtr> staging =
      emitter.Malloc(static_cast<uint64_t>(ctx.dims.tokens()) * 8);
  MAYA_RETURN_IF_ERROR(staging.status());
  ctx.input_staging = *staging;
  return Status::Ok();
}

Status MegatronEngine::Setup(Ctx& ctx) const {
  OpEmitter& emitter = ctx.emitter;
  MAYA_RETURN_IF_ERROR(emitter.Init());

  ctx.stage = layout_.pp_stage(ctx.rank);
  ctx.tp_idx = layout_.tp_index(ctx.rank);
  ctx.dp_idx = layout_.dp_index(ctx.rank);
  ctx.chunks = config_.virtual_pipeline_stages;
  ctx.layers_per_chunk =
      model_.num_layers / (config_.pipeline_parallel * config_.virtual_pipeline_stages);

  ctx.dims.seq = model_.seq_length;
  ctx.dims.mbs = config_.microbatch_size(cluster_.total_gpus());
  ctx.dims.hidden = model_.hidden_size;
  ctx.dims.heads = model_.num_heads;
  ctx.dims.ffn_hidden = model_.hidden_size * model_.ffn_multiplier;
  ctx.dims.vocab = model_.vocab_size;
  ctx.dims.tp = config_.tensor_parallel;
  ctx.dims.sequence_parallel = config_.sequence_parallel;
  ctx.dims.compiled = config_.torch_compile;

  ctx.local_params = LocalParams(ctx.rank);
  ctx.chunk_params = ctx.layers_per_chunk * TransformerLayerParams(ctx.dims);
  ctx.boundary_elems = ctx.dims.sp_tokens() * ctx.dims.hidden;
  ctx.chunk_backward_count.assign(static_cast<size_t>(ctx.chunks), 0);

  // Streams.
  Result<StreamHandle> stream = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(stream.status());
  ctx.compute = *stream;
  for (StreamHandle* handle : {&ctx.fwd_in, &ctx.fwd_out, &ctx.bwd_in, &ctx.bwd_out,
                               &ctx.dp_stream}) {
    Result<StreamHandle> s = emitter.CreateStream();
    MAYA_RETURN_IF_ERROR(s.status());
    *handle = *s;
  }
  // Events.
  for (EventHandle* handle :
       {&ctx.ev_recv_act, &ctx.ev_recv_grad, &ctx.ev_act_ready, &ctx.ev_grad_ready,
        &ctx.ev_opt_done}) {
    Result<EventHandle> event = emitter.CreateEvent();
    MAYA_RETURN_IF_ERROR(event.status());
    *handle = *event;
  }
  for (int chunk = 0; chunk < ctx.chunks; ++chunk) {
    Result<EventHandle> event = emitter.CreateEvent();
    MAYA_RETURN_IF_ERROR(event.status());
    ctx.ev_dp_done.push_back(*event);
  }

  MAYA_RETURN_IF_ERROR(InitComms(ctx));
  return AllocateState(ctx);
}

namespace {

// Maps the k-th virtual microbatch of the interleaved schedule to its
// (chunk, microbatch) pair; with one chunk this is the identity.
struct VirtualStep {
  int chunk;
  int microbatch;
};

VirtualStep MapVirtual(int k, int pp, int chunks) {
  if (chunks == 1) {
    return VirtualStep{0, k};
  }
  const int group = pp * chunks;
  const int chunk = (k % group) / pp;
  const int microbatch = (k / group) * pp + (k % pp);
  return VirtualStep{chunk, microbatch};
}

int64_t StepKey(int chunk, int microbatch) {
  return static_cast<int64_t>(chunk) * 1000000 + microbatch;
}

}  // namespace

Status MegatronEngine::ForwardStep(Ctx& ctx, int virtual_index) const {
  const int pp = config_.pipeline_parallel;
  const VirtualStep step = MapVirtual(virtual_index, pp, ctx.chunks);
  const int global_vstage = step.chunk * pp + ctx.stage;
  const int last_vstage = pp * ctx.chunks - 1;
  OpEmitter& emitter = ctx.emitter;

  emitter.ChargeGlue(emitter.costs().microbatch_glue_us);

  // Retained activations for this (chunk, microbatch) until its backward.
  const uint64_t act_bytes =
      static_cast<uint64_t>(ctx.layers_per_chunk) *
          TransformerActivationBytes(ctx.dims, config_.activation_recomputation) +
      static_cast<uint64_t>(ctx.boundary_elems) * 2;
  Result<DevPtr> act = emitter.Malloc(act_bytes);
  MAYA_RETURN_IF_ERROR(act.status());
  ctx.act_buffers[StepKey(step.chunk, step.microbatch)] = *act;

  TransformerLayerOps ops(&emitter, ctx.dims, ctx.tp_comm, ctx.compute);

  if (global_vstage == 0) {
    // Data loader: stage the microbatch's token ids onto the device.
    MAYA_RETURN_IF_ERROR(emitter.MemcpyAsync(ctx.input_staging, /*src=*/0x1000,
                                             static_cast<uint64_t>(ctx.dims.tokens()) * 8,
                                             MemcpyKind::kHostToDevice, ctx.compute));
    MAYA_RETURN_IF_ERROR(ops.EmbeddingForward());
  } else {
    // Receive boundary activations from the previous stage, then let the
    // compute stream consume them once the transfer lands.
    CHECK(ctx.has_fwd_prev);
    MAYA_RETURN_IF_ERROR(emitter.Recv(static_cast<uint64_t>(ctx.boundary_elems),
                                      ctx.dims.dtype, ctx.prev_rank, ctx.fwd_prev, ctx.fwd_in));
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_recv_act, ctx.fwd_in));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.compute, ctx.ev_recv_act));
  }

  for (int64_t layer = 0; layer < ctx.layers_per_chunk; ++layer) {
    MAYA_RETURN_IF_ERROR(ops.Forward());
  }

  if (global_vstage == last_vstage) {
    // LM head + loss; logits survive until this microbatch's backward.
    const uint64_t logits_bytes = static_cast<uint64_t>(ctx.dims.tokens()) *
                                  (ctx.dims.vocab / ctx.dims.tp) * 6;
    Result<DevPtr> logits = emitter.Malloc(logits_bytes);
    MAYA_RETURN_IF_ERROR(logits.status());
    ctx.logits_buffers[StepKey(step.chunk, step.microbatch)] = *logits;
    MAYA_RETURN_IF_ERROR(ops.HeadForwardAndLoss());
  } else {
    CHECK(ctx.has_fwd_next);
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_act_ready, ctx.compute));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.fwd_out, ctx.ev_act_ready));
    MAYA_RETURN_IF_ERROR(emitter.Send(static_cast<uint64_t>(ctx.boundary_elems),
                                      ctx.dims.dtype, ctx.next_rank, ctx.fwd_next, ctx.fwd_out));
  }
  return Status::Ok();
}

Status MegatronEngine::BackwardStep(Ctx& ctx, int virtual_index) const {
  const int pp = config_.pipeline_parallel;
  const VirtualStep fwd_step = MapVirtual(virtual_index, pp, ctx.chunks);
  // Backward walks chunks in reverse.
  const int chunk = ctx.chunks - 1 - fwd_step.chunk;
  const int microbatch = fwd_step.microbatch;
  const int global_vstage = chunk * pp + ctx.stage;
  const int last_vstage = pp * ctx.chunks - 1;
  OpEmitter& emitter = ctx.emitter;

  emitter.ChargeGlue(emitter.costs().microbatch_glue_us);

  TransformerLayerOps ops(&emitter, ctx.dims, ctx.tp_comm, ctx.compute);

  if (global_vstage == last_vstage) {
    MAYA_RETURN_IF_ERROR(ops.HeadBackward());
    const int64_t key = StepKey(chunk, microbatch);
    auto logits = ctx.logits_buffers.find(key);
    CHECK(logits != ctx.logits_buffers.end());
    MAYA_RETURN_IF_ERROR(emitter.Free(logits->second));
    ctx.logits_buffers.erase(logits);
  } else {
    CHECK(ctx.has_bwd_next);
    MAYA_RETURN_IF_ERROR(emitter.Recv(static_cast<uint64_t>(ctx.boundary_elems),
                                      ctx.dims.dtype, ctx.next_rank, ctx.bwd_next, ctx.bwd_in));
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_recv_grad, ctx.bwd_in));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.compute, ctx.ev_recv_grad));
  }

  for (int64_t layer = 0; layer < ctx.layers_per_chunk; ++layer) {
    if (config_.activation_recomputation) {
      // Full recomputation: replay the layer forward (including its tensor-
      // parallel collectives) before differentiating it.
      MAYA_RETURN_IF_ERROR(ops.Forward());
    }
    MAYA_RETURN_IF_ERROR(ops.Backward());
  }

  if (global_vstage == 0) {
    MAYA_RETURN_IF_ERROR(ops.EmbeddingBackward());
  } else {
    CHECK(ctx.has_bwd_prev);
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_grad_ready, ctx.compute));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.bwd_out, ctx.ev_grad_ready));
    MAYA_RETURN_IF_ERROR(emitter.Send(static_cast<uint64_t>(ctx.boundary_elems),
                                      ctx.dims.dtype, ctx.prev_rank, ctx.bwd_prev, ctx.bwd_out));
  }

  // Release this microbatch's retained activations.
  const int64_t key = StepKey(chunk, microbatch);
  auto act = ctx.act_buffers.find(key);
  CHECK(act != ctx.act_buffers.end());
  MAYA_RETURN_IF_ERROR(emitter.Free(act->second));
  ctx.act_buffers.erase(act);

  // When the chunk's gradients are complete, its data-parallel bucket can
  // reduce in the background, overlapping with the remaining backward work.
  if (++ctx.chunk_backward_count[static_cast<size_t>(chunk)] == config_.num_microbatches()) {
    MAYA_RETURN_IF_ERROR(EmitChunkGradSync(ctx, chunk));
  }
  return Status::Ok();
}

Status MegatronEngine::EmitChunkGradSync(Ctx& ctx, int chunk) const {
  if (layout_.dp() <= 1) {
    return Status::Ok();
  }
  OpEmitter& emitter = ctx.emitter;
  // Gradients of this chunk (+ embedding share on the boundary chunks).
  int64_t grad_elems = ctx.chunk_params;
  const int pp = config_.pipeline_parallel;
  const int global_vstage_first = chunk * pp + ctx.stage;
  if (global_vstage_first == 0 || global_vstage_first == pp * ctx.chunks - 1) {
    grad_elems += (ctx.local_params - ctx.chunk_params * ctx.chunks);
  }
  MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_grad_ready, ctx.compute));
  MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.dp_stream, ctx.ev_grad_ready));
  if (config_.distributed_optimizer) {
    const int64_t shard = (grad_elems + layout_.dp() - 1) / layout_.dp();
    MAYA_RETURN_IF_ERROR(emitter.ReduceScatter(static_cast<uint64_t>(shard), DType::kFp32,
                                               ctx.dp_comm, ctx.dp_stream));
  } else {
    MAYA_RETURN_IF_ERROR(emitter.AllReduce(static_cast<uint64_t>(grad_elems), DType::kFp32,
                                           ctx.dp_comm, ctx.dp_stream));
  }
  MAYA_RETURN_IF_ERROR(
      emitter.RecordEvent(ctx.ev_dp_done[static_cast<size_t>(chunk)], ctx.dp_stream));
  return Status::Ok();
}

Status MegatronEngine::OptimizerStep(Ctx& ctx) const {
  OpEmitter& emitter = ctx.emitter;
  emitter.ChargeGlue(emitter.costs().optimizer_glue_us);

  if (layout_.dp() > 1) {
    for (const EventHandle& event : ctx.ev_dp_done) {
      MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.compute, event));
    }
  }
  // Gradient norm clip: one fused reduction over the local grads.
  MAYA_RETURN_IF_ERROR(
      emitter.LaunchKernel(MakeReduce(ctx.local_params, DType::kFp32), ctx.compute));
  const int64_t opt_elems = config_.distributed_optimizer
                                ? (ctx.local_params + layout_.dp() - 1) / layout_.dp()
                                : ctx.local_params;
  // Adam: params, grads, exp_avg, exp_avg_sq.
  MAYA_RETURN_IF_ERROR(
      emitter.LaunchKernel(MakeOptimizerApply(opt_elems, 4, DType::kFp32), ctx.compute));

  if (config_.distributed_optimizer && layout_.dp() > 1) {
    // Re-materialize the full bf16 parameters from the updated shards.
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_opt_done, ctx.compute));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.dp_stream, ctx.ev_opt_done));
    MAYA_RETURN_IF_ERROR(emitter.AllGather(static_cast<uint64_t>(opt_elems), DType::kBf16,
                                           ctx.dp_comm, ctx.dp_stream));
    MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ctx.ev_opt_done, ctx.dp_stream));
    MAYA_RETURN_IF_ERROR(emitter.WaitEvent(ctx.compute, ctx.ev_opt_done));
  }
  return emitter.DeviceSync();
}

Status MegatronEngine::RunIteration(Ctx& ctx) const {
  const int pp = config_.pipeline_parallel;
  const int total = config_.num_microbatches() * ctx.chunks;
  int warmup = 0;
  if (pp > 1) {
    warmup = ctx.chunks == 1
                 ? std::min(pp - ctx.stage - 1, total)
                 : std::min((pp - ctx.stage - 1) * 2 + (ctx.chunks - 1) * pp, total);
  }

  // 1F1B: warmup forwards, steady-state fwd/bwd pairs, cooldown backwards
  // (interleaved across virtual chunks when chunks > 1).
  for (int k = 0; k < warmup; ++k) {
    MAYA_RETURN_IF_ERROR(ForwardStep(ctx, k));
  }
  for (int j = 0; j < total - warmup; ++j) {
    MAYA_RETURN_IF_ERROR(ForwardStep(ctx, warmup + j));
    MAYA_RETURN_IF_ERROR(BackwardStep(ctx, j));
  }
  for (int k = total - warmup; k < total; ++k) {
    MAYA_RETURN_IF_ERROR(BackwardStep(ctx, k));
  }
  CHECK(ctx.act_buffers.empty());
  CHECK(ctx.logits_buffers.empty());
  return OptimizerStep(ctx);
}

Status MegatronEngine::RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                                 JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  HostCostModel costs;
  if (config_.torch_compile) {
    costs = costs.Compiled();
  }
  // Host-jitter RNG is seeded by the rank's equivalence class (its
  // representative), not the rank id: layout twins execute the same script,
  // so giving them the same measured host delays makes worker deduplication
  // exactly lossless (dedup on/off and virtual folds are bit-identical)
  // while distinct classes still jitter independently.
  Ctx ctx(api, clock, costs,
          SplitMix64(0x5eedULL ^ static_cast<uint64_t>(layout_.RepresentativeOf(rank))));
  ctx.rank = rank;
  ctx.registry = registry;
  MAYA_RETURN_IF_ERROR(Setup(ctx));
  return RunIteration(ctx);
}

void MegatronEngine::RegisterComms(int rank, JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  // Mirror of InitComms: same names, same order, no emulator interaction.
  const int pp = config_.pipeline_parallel;
  if (config_.tensor_parallel > 1) {
    registry->IdFor(StrFormat("tp_g%d", layout_.TpGroupIndex(rank)));
  }
  if (layout_.dp() > 1) {
    registry->IdFor(StrFormat("dp_g%d", layout_.DpGroupIndex(rank)));
  }
  if (pp > 1) {
    const bool ring = config_.virtual_pipeline_stages > 1;
    const int stage = layout_.pp_stage(rank);
    const int prev = (stage - 1 + pp) % pp;
    const int tp_idx = layout_.tp_index(rank);
    const int dp_idx = layout_.dp_index(rank);
    auto link_name = [&](const char* kind, int link) {
      return StrFormat("%s_t%d_d%d_l%d", kind, tp_idx, dp_idx, link);
    };
    if (ring || stage < pp - 1) {
      registry->IdFor(link_name("ppf", stage));
    }
    if (ring || stage > 0) {
      registry->IdFor(link_name("ppf", prev));
    }
    if (ring || stage > 0) {
      registry->IdFor(link_name("ppb", prev));
    }
    if (ring || stage < pp - 1) {
      registry->IdFor(link_name("ppb", stage));
    }
  }
}

std::vector<RankClass> MegatronEngine::EquivalenceClasses() const {
  // One class per pipeline stage: all (tp, dp) coordinates of a stage run
  // the same script (same local layer shard, same collective schedule) and
  // share the representative's jitter stream. Members of stage p are the
  // contiguous rank block [p*tp*dp, (p+1)*tp*dp) in Megatron's
  // tensor-fastest rank order.
  const int block = layout_.tp() * layout_.dp();
  std::vector<RankClass> classes;
  classes.reserve(static_cast<size_t>(layout_.pp()));
  for (int stage = 0; stage < layout_.pp(); ++stage) {
    RankClass cls;
    cls.representative = stage * block;
    cls.members.AddSpan(static_cast<int64_t>(stage) * block, block, 1);
    classes.push_back(std::move(cls));
  }
  return classes;
}

std::vector<CommSpec> MegatronEngine::DescribeComms(int rank) const {
  // Mirror of InitComms: same names, same order, plus the full membership
  // (rank_in_comm order) each CommInit implies.
  std::vector<CommSpec> specs;
  const int pp = config_.pipeline_parallel;
  if (config_.tensor_parallel > 1) {
    specs.push_back({StrFormat("tp_g%d", layout_.TpGroupIndex(rank)), layout_.TpGroup(rank)});
  }
  if (layout_.dp() > 1) {
    specs.push_back({StrFormat("dp_g%d", layout_.DpGroupIndex(rank)), layout_.DpGroup(rank)});
  }
  if (pp > 1) {
    const bool ring = config_.virtual_pipeline_stages > 1;
    const int stage = layout_.pp_stage(rank);
    const int prev = (stage - 1 + pp) % pp;
    const int next = (stage + 1) % pp;
    const int tp_idx = layout_.tp_index(rank);
    const int dp_idx = layout_.dp_index(rank);
    auto link_name = [&](const char* kind, int link) {
      return StrFormat("%s_t%d_d%d_l%d", kind, tp_idx, dp_idx, link);
    };
    auto rank_at = [&](int s) { return layout_.RankOf(tp_idx, dp_idx, s); };
    // Forward link l: sender stage l is comm rank 0, receiver stage (l+1)%pp
    // comm rank 1; backward link l reverses the roles.
    if (ring || stage < pp - 1) {
      specs.push_back({link_name("ppf", stage), {rank, rank_at(next)}});
    }
    if (ring || stage > 0) {
      specs.push_back({link_name("ppf", prev), {rank_at(prev), rank}});
    }
    if (ring || stage > 0) {
      specs.push_back({link_name("ppb", prev), {rank, rank_at(prev)}});
    }
    if (ring || stage < pp - 1) {
      specs.push_back({link_name("ppb", stage), {rank_at(next), rank}});
    }
  }
  return specs;
}

}  // namespace maya

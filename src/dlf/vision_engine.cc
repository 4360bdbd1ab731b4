#include "src/dlf/vision_engine.h"

#include <vector>

#include "src/common/units.h"

namespace maya {
namespace {

constexpr uint64_t kFrameworkReserveBytes = 1ULL * kGiB;

// ReLU / add chains in eager mode vs a single Triton kernel under compile.
Status Pointwise(OpEmitter& emitter, StreamHandle stream, int64_t elements, int ops,
                 bool compiled, DType dtype) {
  if (compiled) {
    return emitter.LaunchKernel(MakeTritonFused(elements, ops + 1, dtype), stream);
  }
  for (int i = 0; i < ops; ++i) {
    MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(MakeElementwise(elements, dtype, 2), stream));
  }
  return Status::Ok();
}

}  // namespace

VisionEngine::VisionEngine(const ModelConfig& model, const TrainConfig& config,
                           const ClusterSpec& cluster)
    : model_(model), config_(config), cluster_(cluster) {
  CHECK(model_.family == ModelFamily::kResNet) << "VisionEngine expects a conv model";
  CHECK(config_.Validate(model_, cluster_).ok()) << "invalid config: " << config_.Summary();
}

void VisionEngine::RegisterComms(int rank, JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  (void)rank;
  if (cluster_.total_gpus() > 1) {
    registry->IdFor("ddp_world");
  }
}

std::vector<RankClass> VisionEngine::EquivalenceClasses() const {
  RankClass cls;
  cls.representative = 0;
  cls.members.AddSpan(0, cluster_.total_gpus(), 1);
  return {std::move(cls)};
}

std::vector<CommSpec> VisionEngine::DescribeComms(int rank) const {
  (void)rank;
  const int world = cluster_.total_gpus();
  if (world <= 1) {
    return {};
  }
  CommSpec world_comm;
  world_comm.name = "ddp_world";
  world_comm.members.resize(static_cast<size_t>(world));
  for (int member = 0; member < world; ++member) {
    world_comm.members[static_cast<size_t>(member)] = member;
  }
  return {std::move(world_comm)};
}

Status VisionEngine::RunWorker(int rank, DeviceApi* api, VirtualHostClock* clock,
                               JobCommRegistry* registry) const {
  CHECK(registry != nullptr);
  HostCostModel costs;
  if (config_.torch_compile) {
    costs = costs.Compiled();
  }
  // Class-seeded host jitter: all DDP ranks are twins of rank 0, so they
  // measure identical delays and deduplication is exactly lossless (see
  // MegatronEngine::RunWorker).
  OpEmitter emitter(api, clock, costs, SplitMix64(0x715ecULL));
  MAYA_RETURN_IF_ERROR(emitter.Init());
  Result<CudnnHandle> cudnn = emitter.CudnnCreate();
  MAYA_RETURN_IF_ERROR(cudnn.status());

  Result<StreamHandle> compute_result = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(compute_result.status());
  const StreamHandle compute = *compute_result;
  Result<StreamHandle> comm_result = emitter.CreateStream();
  MAYA_RETURN_IF_ERROR(comm_result.status());
  const StreamHandle comm_stream = *comm_result;
  MAYA_RETURN_IF_ERROR(emitter.CudnnSetStream(*cudnn, compute));

  Result<EventHandle> ev_result = emitter.CreateEvent();
  MAYA_RETURN_IF_ERROR(ev_result.status());
  const EventHandle ev_bucket = *ev_result;

  const int world = cluster_.total_gpus();
  NcclComm world_comm;
  if (world > 1) {
    Result<NcclComm> comm = emitter.CommInit(world, registry->IdFor("ddp_world"), rank);
    MAYA_RETURN_IF_ERROR(comm.status());
    world_comm = *comm;
  }

  const DType dtype = DType::kFp32;  // vision training commonly runs fp32/AMP
  const int64_t total_params = static_cast<int64_t>(model_.ParameterCount());
  MAYA_RETURN_IF_ERROR(emitter.Malloc(kFrameworkReserveBytes).status());
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(total_params) * 4).status());  // w
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(total_params) * 4).status());  // g
  MAYA_RETURN_IF_ERROR(emitter.Malloc(static_cast<uint64_t>(total_params) * 8).status());  // mom

  const int64_t mbs = config_.microbatch_size(world);

  struct ConvRecord {
    int64_t n, c, h, w, k, r, s, stride;
  };
  std::vector<ConvRecord> convs;  // replayed in reverse for backward

  const int microbatches = config_.num_microbatches();
  for (int mb = 0; mb < microbatches; ++mb) {
    emitter.ChargeGlue(costs.microbatch_glue_us);
    convs.clear();

    // Input batch H2D.
    const uint64_t input_bytes =
        static_cast<uint64_t>(mbs) * 3 * model_.image_size * model_.image_size * 4;
    Result<DevPtr> input = emitter.Malloc(input_bytes);
    MAYA_RETURN_IF_ERROR(input.status());
    MAYA_RETURN_IF_ERROR(
        emitter.MemcpyAsync(*input, 0x1000, input_bytes, MemcpyKind::kHostToDevice, compute));

    // ---- Forward ---------------------------------------------------------
    auto conv_fwd = [&](int64_t c, int64_t h, int64_t w, int64_t k, int64_t r, int64_t stride)
        -> Status {
      convs.push_back(ConvRecord{mbs, c, h, w, k, r, r, stride});
      MAYA_RETURN_IF_ERROR(
          emitter.Conv(KernelKind::kConvForward, *cudnn, mbs, c, h, w, k, r, r, stride, dtype));
      const int64_t out_elems = mbs * k * (h / stride) * (w / stride);
      MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
          MakeBatchNorm(KernelKind::kBatchNormForward, mbs, k, (h / stride) * (w / stride),
                        dtype),
          compute));
      return Pointwise(emitter, compute, out_elems, 1, config_.torch_compile, dtype);
    };

    // Stem: 7x7/2 conv + 3x3/2 max pool.
    int64_t spatial = model_.image_size;
    MAYA_RETURN_IF_ERROR(conv_fwd(3, spatial, spatial, model_.stem_channels, 7, 2));
    spatial /= 2;
    MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
        MakePooling(mbs, model_.stem_channels, spatial, spatial, 2, dtype), compute));
    spatial /= 2;

    int64_t in_channels = model_.stem_channels;
    for (const ConvStageConfig& stage : model_.conv_stages) {
      const int64_t mid = stage.channels / 4;
      for (int block = 0; block < stage.blocks; ++block) {
        const int64_t stride = block == 0 ? stage.stride : 1;
        MAYA_RETURN_IF_ERROR(conv_fwd(in_channels, spatial, spatial, mid, 1, 1));
        MAYA_RETURN_IF_ERROR(conv_fwd(mid, spatial, spatial, mid, 3, stride));
        const int64_t out_spatial = spatial / stride;
        MAYA_RETURN_IF_ERROR(conv_fwd(mid, out_spatial, out_spatial, stage.channels, 1, 1));
        if (block == 0 && (stride != 1 || in_channels != stage.channels)) {
          MAYA_RETURN_IF_ERROR(
              conv_fwd(in_channels, spatial, spatial, stage.channels, 1, stride));
        }
        // Residual add.
        MAYA_RETURN_IF_ERROR(Pointwise(emitter, compute,
                                       mbs * stage.channels * out_spatial * out_spatial, 1,
                                       config_.torch_compile, dtype));
        in_channels = stage.channels;
        spatial = out_spatial;
      }
    }
    // Global average pool + FC + loss.
    MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
        MakeReduce(mbs * in_channels * spatial * spatial, dtype), compute));
    MAYA_RETURN_IF_ERROR(emitter.Gemm(mbs, model_.num_classes, in_channels, dtype, compute));
    MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
        MakeCrossEntropy(KernelKind::kCrossEntropyForward, mbs, model_.num_classes, dtype),
        compute));

    // ---- Backward --------------------------------------------------------
    MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
        MakeCrossEntropy(KernelKind::kCrossEntropyBackward, mbs, model_.num_classes, dtype),
        compute));
    MAYA_RETURN_IF_ERROR(emitter.Gemm(mbs, in_channels, model_.num_classes, dtype, compute));
    MAYA_RETURN_IF_ERROR(
        emitter.Gemm(in_channels, model_.num_classes, mbs, dtype, compute));
    for (auto it = convs.rbegin(); it != convs.rend(); ++it) {
      MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(
          MakeBatchNorm(KernelKind::kBatchNormBackward, it->n, it->k,
                        (it->h / it->stride) * (it->w / it->stride), dtype),
          compute));
      MAYA_RETURN_IF_ERROR(emitter.Conv(KernelKind::kConvBackwardData, *cudnn, it->n, it->c,
                                        it->h, it->w, it->k, it->r, it->s, it->stride, dtype));
      MAYA_RETURN_IF_ERROR(emitter.Conv(KernelKind::kConvBackwardFilter, *cudnn, it->n, it->c,
                                        it->h, it->w, it->k, it->r, it->s, it->stride, dtype));
    }
    MAYA_RETURN_IF_ERROR(emitter.Free(*input));

    // DDP overlaps bucketed gradient all-reduce with backward; emit the
    // buckets at microbatch end (last bucket effectively exposed).
    if (world > 1 && mb == microbatches - 1) {
      constexpr int kBuckets = 4;
      for (int bucket = 0; bucket < kBuckets; ++bucket) {
        MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_bucket, compute));
        MAYA_RETURN_IF_ERROR(emitter.WaitEvent(comm_stream, ev_bucket));
        MAYA_RETURN_IF_ERROR(emitter.AllReduce(
            static_cast<uint64_t>(total_params / kBuckets), dtype, world_comm, comm_stream));
      }
      MAYA_RETURN_IF_ERROR(emitter.RecordEvent(ev_bucket, comm_stream));
      MAYA_RETURN_IF_ERROR(emitter.WaitEvent(compute, ev_bucket));
    }
  }

  emitter.ChargeGlue(costs.optimizer_glue_us);
  MAYA_RETURN_IF_ERROR(emitter.LaunchKernel(MakeReduce(total_params, dtype), compute));
  MAYA_RETURN_IF_ERROR(
      emitter.LaunchKernel(MakeOptimizerApply(total_params, 3, dtype), compute));
  return emitter.DeviceSync();
}

}  // namespace maya

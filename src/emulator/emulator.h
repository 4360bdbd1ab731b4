// Maya's transparent device emulator (§4.1).
//
// WorkerEmulator implements the full DeviceApi for one emulated GPU rank:
// compute operations become no-ops that record rich metadata, while device
// state — memory, streams, events, library handles, communicators — is
// tracked precisely so the application observes a device indistinguishable
// from real hardware (cudaMemGetInfo returns emulated occupancy, misuse is
// flagged, OOM surfaces exactly where it would on the device).
//
// A JobEmulation owns the per-rank emulators of one training job plus the
// out-of-band bootstrap used to exchange NCCL unique ids between ranks.
#ifndef SRC_EMULATOR_EMULATOR_H_
#define SRC_EMULATOR_EMULATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cuda/device_api.h"
#include "src/hw/cluster_spec.h"
#include "src/trace/trace.h"

namespace maya {

// The emulation spec of Fig. 5: which cluster is being pretended.
struct EmulationSpec {
  ClusterSpec cluster;
};

// Out-of-band rendezvous shared by all ranks of a job (the moral equivalent
// of the torch.distributed TCP store that ships NCCL unique ids around).
class JobBootstrap {
 public:
  NcclUniqueId CreateUniqueId() { return NcclUniqueId{next_uid_.fetch_add(1) + 1}; }

 private:
  std::atomic<uint64_t> next_uid_{0};
};

// Per-emulator observability counters.
struct EmulatorStats {
  uint64_t api_calls = 0;
  uint64_t kernels_launched = 0;
  uint64_t collectives = 0;
  uint64_t mallocs = 0;
  uint64_t frees = 0;
  uint64_t sync_calls = 0;
  // Small device-to-host copies actually mocked with a memcpy so framework
  // verification checks that inspect output metadata pass (§7.2, Table 4).
  uint64_t mocked_small_copies = 0;
  uint64_t errors_flagged = 0;
};

class WorkerEmulator final : public DeviceApi {
 public:
  WorkerEmulator(int rank, const EmulationSpec& spec, JobBootstrap* bootstrap,
                 const HostClock* clock);

  // ---- DeviceApi ----------------------------------------------------------
  CudaError cudaGetDeviceCount(int* count) override;
  CudaError cudaSetDevice(int device) override;
  CudaError cudaGetDevice(int* device) override;
  CudaError cudaMemGetInfo(uint64_t* free_bytes, uint64_t* total_bytes) override;
  CudaError cudaDeviceSynchronize() override;

  CudaError cudaMalloc(DevPtr* ptr, uint64_t bytes) override;
  CudaError cudaFree(DevPtr ptr) override;
  CudaError cudaHostAlloc(DevPtr* ptr, uint64_t bytes) override;
  CudaError cudaFreeHost(DevPtr ptr) override;
  CudaError cudaMemcpyAsync(DevPtr dst, DevPtr src, uint64_t bytes, MemcpyKind kind,
                            StreamHandle stream) override;
  CudaError cudaMemcpy(DevPtr dst, DevPtr src, uint64_t bytes, MemcpyKind kind) override;
  CudaError cudaMemsetAsync(DevPtr ptr, int value, uint64_t bytes, StreamHandle stream) override;

  CudaError cudaStreamCreate(StreamHandle* stream) override;
  CudaError cudaStreamDestroy(StreamHandle stream) override;
  CudaError cudaStreamSynchronize(StreamHandle stream) override;
  CudaError cudaEventCreate(EventHandle* event) override;
  CudaError cudaEventDestroy(EventHandle event) override;
  CudaError cudaEventRecord(EventHandle event, StreamHandle stream) override;
  CudaError cudaStreamWaitEvent(StreamHandle stream, EventHandle event) override;
  CudaError cudaEventSynchronize(EventHandle event) override;
  CudaError cudaEventQuery(EventHandle event) override;

  CudaError cudaLaunchKernel(const KernelDesc& kernel, StreamHandle stream) override;

  CudaError cublasCreate(CublasHandle* handle) override;
  CudaError cublasDestroy(CublasHandle handle) override;
  CudaError cublasSetStream(CublasHandle handle, StreamHandle stream) override;
  CudaError cublasSetMathMode(CublasHandle handle, bool tensor_ops_allowed) override;
  CudaError cublasGemmEx(CublasHandle handle, int64_t m, int64_t n, int64_t k,
                         DType dtype) override;
  CudaError cublasGemmStridedBatchedEx(CublasHandle handle, int64_t m, int64_t n, int64_t k,
                                       int64_t batch, DType dtype) override;

  CudaError cudnnCreate(CudnnHandle* handle) override;
  CudaError cudnnDestroy(CudnnHandle handle) override;
  CudaError cudnnSetStream(CudnnHandle handle, StreamHandle stream) override;
  CudaError cudnnCreateTensorDescriptor(CudnnTensorDesc* desc) override;
  CudaError cudnnSetTensor4dDescriptor(CudnnTensorDesc desc, int64_t n, int64_t c, int64_t h,
                                       int64_t w, DType dtype) override;
  CudaError cudnnDestroyTensorDescriptor(CudnnTensorDesc desc) override;
  CudaError cudnnCreateFilterDescriptor(CudnnFilterDesc* desc) override;
  CudaError cudnnSetFilter4dDescriptor(CudnnFilterDesc desc, int64_t k, int64_t c, int64_t r,
                                       int64_t s, DType dtype) override;
  CudaError cudnnDestroyFilterDescriptor(CudnnFilterDesc desc) override;
  CudaError cudnnCreateConvolutionDescriptor(CudnnConvDesc* desc) override;
  CudaError cudnnSetConvolution2dDescriptor(CudnnConvDesc desc, int64_t pad,
                                            int64_t stride) override;
  CudaError cudnnDestroyConvolutionDescriptor(CudnnConvDesc desc) override;
  CudaError cudnnConvolutionForward(CudnnHandle handle, CudnnTensorDesc x_desc,
                                    CudnnFilterDesc w_desc, CudnnConvDesc conv_desc) override;
  CudaError cudnnConvolutionBackwardData(CudnnHandle handle, CudnnTensorDesc dy_desc,
                                         CudnnFilterDesc w_desc, CudnnConvDesc conv_desc) override;
  CudaError cudnnConvolutionBackwardFilter(CudnnHandle handle, CudnnTensorDesc x_desc,
                                           CudnnTensorDesc dy_desc,
                                           CudnnConvDesc conv_desc) override;

  CudaError ncclGetUniqueId(NcclUniqueId* unique_id) override;
  CudaError ncclCommInitRank(NcclComm* comm, int nranks, NcclUniqueId unique_id,
                             int rank) override;
  CudaError ncclCommDestroy(NcclComm comm) override;
  CudaError ncclAllReduce(uint64_t count, DType dtype, NcclRedOp op, NcclComm comm,
                          StreamHandle stream) override;
  CudaError ncclAllGather(uint64_t send_count, DType dtype, NcclComm comm,
                          StreamHandle stream) override;
  CudaError ncclReduceScatter(uint64_t recv_count, DType dtype, NcclRedOp op, NcclComm comm,
                              StreamHandle stream) override;
  CudaError ncclBroadcast(uint64_t count, DType dtype, int root, NcclComm comm,
                          StreamHandle stream) override;
  CudaError ncclSend(uint64_t count, DType dtype, int peer, NcclComm comm,
                     StreamHandle stream) override;
  CudaError ncclRecv(uint64_t count, DType dtype, int peer, NcclComm comm,
                     StreamHandle stream) override;
  CudaError ncclGroupStart() override;
  CudaError ncclGroupEnd() override;

  // ---- Emulation results --------------------------------------------------
  int rank() const { return rank_; }
  const EmulatorStats& stats() const { return stats_; }
  uint64_t used_device_bytes() const { return used_device_bytes_; }
  uint64_t peak_device_bytes() const { return peak_device_bytes_; }
  // Finalizes and returns the recorded trace (emulator resets to empty).
  WorkerTrace TakeTrace();

 private:
  struct CublasState {
    StreamHandle stream;
    bool tensor_ops_allowed = true;
  };
  struct CudnnState {
    StreamHandle stream;
  };
  struct TensorDescState {
    bool set = false;
    int64_t n = 0, c = 0, h = 0, w = 0;
    DType dtype = DType::kFp32;
  };
  struct FilterDescState {
    bool set = false;
    int64_t k = 0, c = 0, r = 0, s = 0;
    DType dtype = DType::kFp32;
  };
  struct ConvDescState {
    bool set = false;
    int64_t pad = 0, stride = 1;
  };
  struct CommState {
    uint64_t uid = 0;
    int nranks = 0;
    int rank_in_comm = -1;
    uint32_t next_seq = 0;
  };

  // Appends a trace op, attributing host time elapsed since the last
  // recorded op as this op's host delay (wall-clock delta measurement of
  // §4.2, against the virtual host clock).
  TraceOp& Record(TraceOpType type, StreamHandle stream);
  CudaError Flag(CudaError error, const std::string& context);
  bool StreamValid(StreamHandle stream) const;
  CudaError EmitCollective(CollectiveKind kind, uint64_t payload_bytes, NcclComm comm,
                           StreamHandle stream, int peer);

  const int rank_;
  // Borrowed from the owning JobEmulation: one shared spec instead of a
  // per-rank ClusterSpec copy (emulation front-ends create thousands of
  // workers across a search).
  const EmulationSpec& spec_;
  JobBootstrap* const bootstrap_;
  const HostClock* const clock_;

  WorkerTrace trace_;
  EmulatorStats stats_;
  double last_call_time_us_ = 0.0;

  // Physical resource tracking.
  uint64_t used_device_bytes_ = 0;
  uint64_t peak_device_bytes_ = 0;
  std::unordered_map<DevPtr, uint64_t> device_allocations_;
  std::unordered_map<DevPtr, uint64_t> host_allocations_;
  uint64_t next_device_ptr_ = 0x7f0000000000ULL;
  uint64_t next_host_ptr_ = 0x100000000ULL;

  // Virtual resource tracking.
  int current_device_ = 0;
  uint64_t next_handle_ = 1;
  std::unordered_map<uint64_t, bool> streams_;
  std::unordered_map<uint64_t, uint32_t> events_;  // id -> record version
  std::unordered_map<uint64_t, CublasState> cublas_handles_;
  std::unordered_map<uint64_t, CudnnState> cudnn_handles_;
  std::unordered_map<uint64_t, TensorDescState> tensor_descs_;
  std::unordered_map<uint64_t, FilterDescState> filter_descs_;
  std::unordered_map<uint64_t, ConvDescState> conv_descs_;
  std::unordered_map<uint64_t, CommState> comms_;

  // ncclGroupStart/End batching of point-to-point operations.
  int group_depth_ = 0;
  struct PendingP2p {
    CollectiveKind kind;
    uint64_t bytes;
    NcclComm comm;
    StreamHandle stream;
    int peer;
  };
  std::vector<PendingP2p> pending_p2p_;
};

// Concurrency model: CreateWorker must be called from one thread (the
// launcher pre-creates every rank's emulator before fanning out), after
// which distinct workers are fully independent — each holds only per-rank
// state, so the launcher may drive them from different threads. The shared
// JobBootstrap hands out unique ids atomically.
class JobEmulation {
 public:
  explicit JobEmulation(EmulationSpec spec) : spec_(std::move(spec)) {}

  const EmulationSpec& spec() const { return spec_; }
  JobBootstrap& bootstrap() { return bootstrap_; }

  // Creates (and owns) the emulator for `rank`. Not thread-safe.
  WorkerEmulator& CreateWorker(int rank, const HostClock* clock);

  // Collects traces from every created worker, in rank order.
  std::vector<WorkerTrace> TakeTraces();

 private:
  EmulationSpec spec_;
  JobBootstrap bootstrap_;
  std::vector<std::unique_ptr<WorkerEmulator>> workers_;
};

}  // namespace maya

#endif  // SRC_EMULATOR_EMULATOR_H_

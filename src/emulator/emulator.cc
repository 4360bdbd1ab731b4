#include "src/emulator/emulator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace maya {
namespace {

// Device allocations are rounded up like real allocators round to pages.
constexpr uint64_t kAllocationAlignment = 512;
// D2H copies at or below this size are actually mocked (zero-filled) so
// framework verification code that inspects counts/metadata succeeds (§7.2).
constexpr uint64_t kMockCopyLimit = 64 * 1024;

// Initial TraceOp capacity: one training iteration of even a small model
// records hundreds of ops, so skipping the first few geometric regrowths
// (and their TraceOp copies) is nearly free memory-wise and measurable on
// the emulation hot path.
constexpr size_t kInitialTraceOpCapacity = 1024;

uint64_t AlignUp(uint64_t bytes) {
  return (bytes + kAllocationAlignment - 1) / kAllocationAlignment * kAllocationAlignment;
}

}  // namespace

WorkerEmulator::WorkerEmulator(int rank, const EmulationSpec& spec, JobBootstrap* bootstrap,
                               const HostClock* clock)
    : rank_(rank), spec_(spec), bootstrap_(bootstrap), clock_(clock) {
  CHECK(bootstrap_ != nullptr);
  CHECK(clock_ != nullptr);
  trace_.rank = rank;
  trace_.ops.reserve(kInitialTraceOpCapacity);
  last_call_time_us_ = clock_->NowUs();
  streams_[0] = true;  // legacy default stream
  current_device_ = rank % spec_.cluster.gpus_per_node;
}

TraceOp& WorkerEmulator::Record(TraceOpType type, StreamHandle stream) {
  const double now = clock_->NowUs();
  TraceOp& op = trace_.ops.emplace_back();
  op.type = type;
  op.host_delay_us = std::max(0.0, now - last_call_time_us_);
  op.stream = stream.id;
  last_call_time_us_ = now;
  return op;
}

CudaError WorkerEmulator::Flag(CudaError error, const std::string& context) {
  ++stats_.errors_flagged;
  (void)context;  // surfaced via return code; contexts are for debugging
  return error;
}

bool WorkerEmulator::StreamValid(StreamHandle stream) const {
  return streams_.count(stream.id) > 0;
}

// ---- Device management ------------------------------------------------------

CudaError WorkerEmulator::cudaGetDeviceCount(int* count) {
  ++stats_.api_calls;
  if (count == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaGetDeviceCount(null)");
  }
  *count = spec_.cluster.gpus_per_node;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaSetDevice(int device) {
  ++stats_.api_calls;
  if (device < 0 || device >= spec_.cluster.gpus_per_node) {
    return Flag(CudaError::kErrorInvalidValue, "cudaSetDevice");
  }
  current_device_ = device;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaGetDevice(int* device) {
  ++stats_.api_calls;
  if (device == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaGetDevice(null)");
  }
  *device = current_device_;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaMemGetInfo(uint64_t* free_bytes, uint64_t* total_bytes) {
  ++stats_.api_calls;
  if (free_bytes == nullptr || total_bytes == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaMemGetInfo(null)");
  }
  // Carefully constructed response mimicking the device (§4.1): frameworks
  // use this to size allocator pools exactly as they would on hardware.
  *total_bytes = spec_.cluster.gpu.hbm_bytes;
  *free_bytes = spec_.cluster.gpu.hbm_bytes - std::min(spec_.cluster.gpu.hbm_bytes,
                                                       used_device_bytes_);
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaDeviceSynchronize() {
  ++stats_.api_calls;
  ++stats_.sync_calls;
  Record(TraceOpType::kDeviceSynchronize, StreamHandle{0});
  return CudaError::kSuccess;
}

// ---- Memory ------------------------------------------------------------------

CudaError WorkerEmulator::cudaMalloc(DevPtr* ptr, uint64_t bytes) {
  ++stats_.api_calls;
  if (ptr == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaMalloc(null)");
  }
  const uint64_t rounded = AlignUp(bytes);
  if (used_device_bytes_ + rounded > spec_.cluster.gpu.hbm_bytes) {
    // Out-of-memory detection: the headline benefit of physical resource
    // tracking during emulation (§4.1 "Resource Tracking").
    *ptr = 0;
    return CudaError::kErrorMemoryAllocation;
  }
  const DevPtr allocated = next_device_ptr_;
  next_device_ptr_ += std::max<uint64_t>(rounded, kAllocationAlignment);
  device_allocations_[allocated] = rounded;
  used_device_bytes_ += rounded;
  peak_device_bytes_ = std::max(peak_device_bytes_, used_device_bytes_);
  ++stats_.mallocs;
  TraceOp& op = Record(TraceOpType::kMalloc, StreamHandle{0});
  op.memory.bytes = rounded;
  op.memory.ptr = allocated;
  *ptr = allocated;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaFree(DevPtr ptr) {
  ++stats_.api_calls;
  if (ptr == 0) {
    return CudaError::kSuccess;  // freeing nullptr is a no-op, as in CUDA
  }
  auto it = device_allocations_.find(ptr);
  if (it == device_allocations_.end()) {
    return Flag(CudaError::kErrorInvalidDevicePointer, "cudaFree(unknown)");
  }
  used_device_bytes_ -= it->second;
  ++stats_.frees;
  TraceOp& op = Record(TraceOpType::kFree, StreamHandle{0});
  op.memory.bytes = it->second;
  op.memory.ptr = ptr;
  device_allocations_.erase(it);
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaHostAlloc(DevPtr* ptr, uint64_t bytes) {
  ++stats_.api_calls;
  if (ptr == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaHostAlloc(null)");
  }
  const DevPtr allocated = next_host_ptr_;
  next_host_ptr_ += std::max<uint64_t>(AlignUp(bytes), kAllocationAlignment);
  host_allocations_[allocated] = bytes;
  *ptr = allocated;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaFreeHost(DevPtr ptr) {
  ++stats_.api_calls;
  if (ptr == 0) {
    return CudaError::kSuccess;
  }
  if (host_allocations_.erase(ptr) == 0) {
    return Flag(CudaError::kErrorInvalidValue, "cudaFreeHost(unknown)");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaMemcpyAsync(DevPtr dst, DevPtr src, uint64_t bytes, MemcpyKind kind,
                                          StreamHandle stream) {
  ++stats_.api_calls;
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaMemcpyAsync(stream)");
  }
  // Device-side pointers must reference live allocations; host pointers are
  // opaque (pageable host memory is not tracked).
  const bool dst_is_device =
      kind == MemcpyKind::kHostToDevice || kind == MemcpyKind::kDeviceToDevice;
  const bool src_is_device =
      kind == MemcpyKind::kDeviceToHost || kind == MemcpyKind::kDeviceToDevice;
  if (dst_is_device && device_allocations_.count(dst) == 0) {
    return Flag(CudaError::kErrorInvalidDevicePointer, "cudaMemcpyAsync(dst)");
  }
  if (src_is_device && device_allocations_.count(src) == 0) {
    return Flag(CudaError::kErrorInvalidDevicePointer, "cudaMemcpyAsync(src)");
  }
  if (kind == MemcpyKind::kDeviceToHost && bytes <= kMockCopyLimit) {
    // Mock the copy so framework verification checks reading back counts or
    // rank orders still pass under emulation (the tensors carry no real
    // data, but the shape of the transfer is faithful).
    ++stats_.mocked_small_copies;
  }
  KernelKind kernel_kind = KernelKind::kMemcpyD2D;
  switch (kind) {
    case MemcpyKind::kHostToDevice:
      kernel_kind = KernelKind::kMemcpyH2D;
      break;
    case MemcpyKind::kDeviceToHost:
      kernel_kind = KernelKind::kMemcpyD2H;
      break;
    case MemcpyKind::kDeviceToDevice:
    case MemcpyKind::kHostToHost:
      kernel_kind = KernelKind::kMemcpyD2D;
      break;
  }
  TraceOp& op = Record(TraceOpType::kKernelLaunch, stream);
  op.kernel = MakeMemcpy(kernel_kind, static_cast<int64_t>(bytes));
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaMemcpy(DevPtr dst, DevPtr src, uint64_t bytes, MemcpyKind kind) {
  const CudaError error = cudaMemcpyAsync(dst, src, bytes, kind, StreamHandle{0});
  if (error != CudaError::kSuccess) {
    return error;
  }
  // Synchronous copies imply a legacy-stream synchronize.
  ++stats_.sync_calls;
  Record(TraceOpType::kStreamSynchronize, StreamHandle{0});
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaMemsetAsync(DevPtr ptr, int value, uint64_t bytes,
                                          StreamHandle stream) {
  ++stats_.api_calls;
  (void)value;
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaMemsetAsync(stream)");
  }
  if (device_allocations_.count(ptr) == 0) {
    return Flag(CudaError::kErrorInvalidDevicePointer, "cudaMemsetAsync(ptr)");
  }
  TraceOp& op = Record(TraceOpType::kKernelLaunch, stream);
  op.kernel = MakeMemset(static_cast<int64_t>(bytes));
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

// ---- Streams and events ------------------------------------------------------

CudaError WorkerEmulator::cudaStreamCreate(StreamHandle* stream) {
  ++stats_.api_calls;
  if (stream == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaStreamCreate(null)");
  }
  stream->id = next_handle_++;
  streams_[stream->id] = true;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaStreamDestroy(StreamHandle stream) {
  ++stats_.api_calls;
  if (stream.id == 0 || streams_.erase(stream.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaStreamDestroy");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaStreamSynchronize(StreamHandle stream) {
  ++stats_.api_calls;
  ++stats_.sync_calls;
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaStreamSynchronize");
  }
  Record(TraceOpType::kStreamSynchronize, stream);
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaEventCreate(EventHandle* event) {
  ++stats_.api_calls;
  if (event == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudaEventCreate(null)");
  }
  event->id = next_handle_++;
  events_[event->id] = 0;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaEventDestroy(EventHandle event) {
  ++stats_.api_calls;
  if (events_.erase(event.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaEventDestroy");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaEventRecord(EventHandle event, StreamHandle stream) {
  ++stats_.api_calls;
  auto it = events_.find(event.id);
  if (it == events_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaEventRecord(event)");
  }
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaEventRecord(stream)");
  }
  // Handle re-use is disambiguated by versioning (Appendix A).
  it->second += 1;
  TraceOp& op = Record(TraceOpType::kEventRecord, stream);
  op.event.event_id = static_cast<uint32_t>(event.id);
  op.event.version = it->second;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaStreamWaitEvent(StreamHandle stream, EventHandle event) {
  ++stats_.api_calls;
  auto it = events_.find(event.id);
  if (it == events_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaStreamWaitEvent(event)");
  }
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaStreamWaitEvent(stream)");
  }
  TraceOp& op = Record(TraceOpType::kStreamWaitEvent, stream);
  op.event.event_id = static_cast<uint32_t>(event.id);
  op.event.version = it->second;  // waits on the most recent record
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaEventSynchronize(EventHandle event) {
  ++stats_.api_calls;
  ++stats_.sync_calls;
  auto it = events_.find(event.id);
  if (it == events_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaEventSynchronize");
  }
  TraceOp& op = Record(TraceOpType::kEventSynchronize, StreamHandle{0});
  op.event.event_id = static_cast<uint32_t>(event.id);
  op.event.version = it->second;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudaEventQuery(EventHandle event) {
  ++stats_.api_calls;
  if (events_.count(event.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaEventQuery");
  }
  // Under emulation kernels retire instantly, so recorded events are
  // always complete.
  return CudaError::kSuccess;
}

// ---- Kernel launch -----------------------------------------------------------

CudaError WorkerEmulator::cudaLaunchKernel(const KernelDesc& kernel, StreamHandle stream) {
  ++stats_.api_calls;
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudaLaunchKernel(stream)");
  }
  TraceOp& op = Record(TraceOpType::kKernelLaunch, stream);
  op.kernel = kernel;
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

// ---- cuBLAS -------------------------------------------------------------------

CudaError WorkerEmulator::cublasCreate(CublasHandle* handle) {
  ++stats_.api_calls;
  if (handle == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cublasCreate(null)");
  }
  handle->id = next_handle_++;
  cublas_handles_[handle->id] = CublasState{};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cublasDestroy(CublasHandle handle) {
  ++stats_.api_calls;
  if (cublas_handles_.erase(handle.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasDestroy");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cublasSetStream(CublasHandle handle, StreamHandle stream) {
  ++stats_.api_calls;
  auto it = cublas_handles_.find(handle.id);
  if (it == cublas_handles_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasSetStream(handle)");
  }
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasSetStream(stream)");
  }
  it->second.stream = stream;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cublasSetMathMode(CublasHandle handle, bool tensor_ops_allowed) {
  ++stats_.api_calls;
  auto it = cublas_handles_.find(handle.id);
  if (it == cublas_handles_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasSetMathMode");
  }
  it->second.tensor_ops_allowed = tensor_ops_allowed;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cublasGemmEx(CublasHandle handle, int64_t m, int64_t n, int64_t k,
                                       DType dtype) {
  ++stats_.api_calls;
  auto it = cublas_handles_.find(handle.id);
  if (it == cublas_handles_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasGemmEx(handle)");
  }
  // Context-aware operation modeling (§4.1): the launch inherits the stream
  // bound earlier via cublasSetStream.
  TraceOp& op = Record(TraceOpType::kKernelLaunch, it->second.stream);
  op.kernel = MakeGemm(m, n, k, dtype);
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cublasGemmStridedBatchedEx(CublasHandle handle, int64_t m, int64_t n,
                                                     int64_t k, int64_t batch, DType dtype) {
  ++stats_.api_calls;
  auto it = cublas_handles_.find(handle.id);
  if (it == cublas_handles_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cublasGemmStridedBatchedEx(handle)");
  }
  TraceOp& op = Record(TraceOpType::kKernelLaunch, it->second.stream);
  op.kernel = MakeGemm(m, n, k, dtype, batch);
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

// ---- cuDNN --------------------------------------------------------------------

CudaError WorkerEmulator::cudnnCreate(CudnnHandle* handle) {
  ++stats_.api_calls;
  if (handle == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnCreate(null)");
  }
  handle->id = next_handle_++;
  cudnn_handles_[handle->id] = CudnnState{};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnDestroy(CudnnHandle handle) {
  ++stats_.api_calls;
  if (cudnn_handles_.erase(handle.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnDestroy");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnSetStream(CudnnHandle handle, StreamHandle stream) {
  ++stats_.api_calls;
  auto it = cudnn_handles_.find(handle.id);
  if (it == cudnn_handles_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnSetStream(handle)");
  }
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnSetStream(stream)");
  }
  it->second.stream = stream;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnCreateTensorDescriptor(CudnnTensorDesc* desc) {
  ++stats_.api_calls;
  if (desc == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnCreateTensorDescriptor(null)");
  }
  desc->id = next_handle_++;
  tensor_descs_[desc->id] = TensorDescState{};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnSetTensor4dDescriptor(CudnnTensorDesc desc, int64_t n, int64_t c,
                                                     int64_t h, int64_t w, DType dtype) {
  ++stats_.api_calls;
  auto it = tensor_descs_.find(desc.id);
  if (it == tensor_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnSetTensor4dDescriptor");
  }
  it->second = TensorDescState{true, n, c, h, w, dtype};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnDestroyTensorDescriptor(CudnnTensorDesc desc) {
  ++stats_.api_calls;
  if (tensor_descs_.erase(desc.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnDestroyTensorDescriptor");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnCreateFilterDescriptor(CudnnFilterDesc* desc) {
  ++stats_.api_calls;
  if (desc == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnCreateFilterDescriptor(null)");
  }
  desc->id = next_handle_++;
  filter_descs_[desc->id] = FilterDescState{};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnSetFilter4dDescriptor(CudnnFilterDesc desc, int64_t k, int64_t c,
                                                     int64_t r, int64_t s, DType dtype) {
  ++stats_.api_calls;
  auto it = filter_descs_.find(desc.id);
  if (it == filter_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnSetFilter4dDescriptor");
  }
  it->second = FilterDescState{true, k, c, r, s, dtype};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnDestroyFilterDescriptor(CudnnFilterDesc desc) {
  ++stats_.api_calls;
  if (filter_descs_.erase(desc.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnDestroyFilterDescriptor");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnCreateConvolutionDescriptor(CudnnConvDesc* desc) {
  ++stats_.api_calls;
  if (desc == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnCreateConvolutionDescriptor(null)");
  }
  desc->id = next_handle_++;
  conv_descs_[desc->id] = ConvDescState{};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnSetConvolution2dDescriptor(CudnnConvDesc desc, int64_t pad,
                                                          int64_t stride) {
  ++stats_.api_calls;
  auto it = conv_descs_.find(desc.id);
  if (it == conv_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnSetConvolution2dDescriptor");
  }
  if (stride <= 0) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnSetConvolution2dDescriptor(stride)");
  }
  it->second = ConvDescState{true, pad, stride};
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnDestroyConvolutionDescriptor(CudnnConvDesc desc) {
  ++stats_.api_calls;
  if (conv_descs_.erase(desc.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnDestroyConvolutionDescriptor");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnConvolutionForward(CudnnHandle handle, CudnnTensorDesc x_desc,
                                                  CudnnFilterDesc w_desc,
                                                  CudnnConvDesc conv_desc) {
  ++stats_.api_calls;
  auto handle_it = cudnn_handles_.find(handle.id);
  auto x_it = tensor_descs_.find(x_desc.id);
  auto w_it = filter_descs_.find(w_desc.id);
  auto conv_it = conv_descs_.find(conv_desc.id);
  if (handle_it == cudnn_handles_.end() || x_it == tensor_descs_.end() ||
      w_it == filter_descs_.end() || conv_it == conv_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnConvolutionForward(handles)");
  }
  // Uninitialized descriptors are a user error the emulator detects (§4.1).
  if (!x_it->second.set || !w_it->second.set || !conv_it->second.set) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnConvolutionForward(descriptor unset)");
  }
  const TensorDescState& x = x_it->second;
  const FilterDescState& w = w_it->second;
  TraceOp& op = Record(TraceOpType::kKernelLaunch, handle_it->second.stream);
  op.kernel = MakeConv(KernelKind::kConvForward, x.n, x.c, x.h, x.w, w.k, w.r, w.s,
                       conv_it->second.stride, x.dtype);
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnConvolutionBackwardData(CudnnHandle handle, CudnnTensorDesc dy_desc,
                                                       CudnnFilterDesc w_desc,
                                                       CudnnConvDesc conv_desc) {
  ++stats_.api_calls;
  auto handle_it = cudnn_handles_.find(handle.id);
  auto dy_it = tensor_descs_.find(dy_desc.id);
  auto w_it = filter_descs_.find(w_desc.id);
  auto conv_it = conv_descs_.find(conv_desc.id);
  if (handle_it == cudnn_handles_.end() || dy_it == tensor_descs_.end() ||
      w_it == filter_descs_.end() || conv_it == conv_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnConvolutionBackwardData");
  }
  if (!dy_it->second.set || !w_it->second.set || !conv_it->second.set) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnConvolutionBackwardData(descriptor unset)");
  }
  const TensorDescState& dy = dy_it->second;
  const FilterDescState& w = w_it->second;
  const int64_t stride = conv_it->second.stride;
  TraceOp& op = Record(TraceOpType::kKernelLaunch, handle_it->second.stream);
  // dy has output spatial dims; recover input dims via stride.
  op.kernel = MakeConv(KernelKind::kConvBackwardData, dy.n, w.c, dy.h * stride, dy.w * stride,
                       w.k, w.r, w.s, stride, dy.dtype);
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::cudnnConvolutionBackwardFilter(CudnnHandle handle,
                                                         CudnnTensorDesc x_desc,
                                                         CudnnTensorDesc dy_desc,
                                                         CudnnConvDesc conv_desc) {
  ++stats_.api_calls;
  auto handle_it = cudnn_handles_.find(handle.id);
  auto x_it = tensor_descs_.find(x_desc.id);
  auto dy_it = tensor_descs_.find(dy_desc.id);
  auto conv_it = conv_descs_.find(conv_desc.id);
  if (handle_it == cudnn_handles_.end() || x_it == tensor_descs_.end() ||
      dy_it == tensor_descs_.end() || conv_it == conv_descs_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "cudnnConvolutionBackwardFilter");
  }
  if (!x_it->second.set || !dy_it->second.set || !conv_it->second.set) {
    return Flag(CudaError::kErrorInvalidValue, "cudnnConvolutionBackwardFilter(descriptor unset)");
  }
  const TensorDescState& x = x_it->second;
  const TensorDescState& dy = dy_it->second;
  TraceOp& op = Record(TraceOpType::kKernelLaunch, handle_it->second.stream);
  // Filter spatial extent is not part of the descriptors passed here in the
  // real API either (it comes from dw_desc); approximate 3x3 when unknown.
  op.kernel = MakeConv(KernelKind::kConvBackwardFilter, x.n, x.c, x.h, x.w, dy.c, 3, 3,
                       conv_it->second.stride, x.dtype);
  ++stats_.kernels_launched;
  return CudaError::kSuccess;
}

// ---- NCCL ---------------------------------------------------------------------

CudaError WorkerEmulator::ncclGetUniqueId(NcclUniqueId* unique_id) {
  ++stats_.api_calls;
  if (unique_id == nullptr) {
    return Flag(CudaError::kErrorInvalidValue, "ncclGetUniqueId(null)");
  }
  *unique_id = bootstrap_->CreateUniqueId();
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::ncclCommInitRank(NcclComm* comm, int nranks, NcclUniqueId unique_id,
                                           int rank) {
  ++stats_.api_calls;
  if (comm == nullptr || nranks <= 0 || rank < 0 || rank >= nranks || unique_id.value == 0) {
    return Flag(CudaError::kErrorInvalidValue, "ncclCommInitRank");
  }
  comm->id = next_handle_++;
  comms_[comm->id] = CommState{unique_id.value, nranks, rank, 0};
  trace_.comm_inits.push_back(CommInitRecord{unique_id.value, nranks, rank});
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::ncclCommDestroy(NcclComm comm) {
  ++stats_.api_calls;
  if (comms_.erase(comm.id) == 0) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "ncclCommDestroy");
  }
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::EmitCollective(CollectiveKind kind, uint64_t payload_bytes,
                                         NcclComm comm, StreamHandle stream, int peer) {
  auto it = comms_.find(comm.id);
  if (it == comms_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "nccl collective (comm)");
  }
  if (!StreamValid(stream)) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "nccl collective (stream)");
  }
  CommState& state = it->second;
  TraceOp& op = Record(TraceOpType::kCollective, stream);
  op.collective.kind = kind;
  op.collective.bytes = payload_bytes;
  op.collective.comm_uid = state.uid;
  op.collective.seq = state.next_seq++;
  op.collective.nranks = state.nranks;
  op.collective.rank_in_comm = state.rank_in_comm;
  op.collective.peer = peer;
  ++stats_.collectives;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::ncclAllReduce(uint64_t count, DType dtype, NcclRedOp op, NcclComm comm,
                                        StreamHandle stream) {
  ++stats_.api_calls;
  (void)op;
  return EmitCollective(CollectiveKind::kAllReduce, count * DTypeSize(dtype), comm, stream, -1);
}

CudaError WorkerEmulator::ncclAllGather(uint64_t send_count, DType dtype, NcclComm comm,
                                        StreamHandle stream) {
  ++stats_.api_calls;
  auto it = comms_.find(comm.id);
  if (it == comms_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "ncclAllGather(comm)");
  }
  // Payload convention: full gathered buffer (send_count from each rank).
  const uint64_t bytes = send_count * DTypeSize(dtype) * static_cast<uint64_t>(it->second.nranks);
  return EmitCollective(CollectiveKind::kAllGather, bytes, comm, stream, -1);
}

CudaError WorkerEmulator::ncclReduceScatter(uint64_t recv_count, DType dtype, NcclRedOp op,
                                            NcclComm comm, StreamHandle stream) {
  ++stats_.api_calls;
  (void)op;
  auto it = comms_.find(comm.id);
  if (it == comms_.end()) {
    return Flag(CudaError::kErrorInvalidResourceHandle, "ncclReduceScatter(comm)");
  }
  const uint64_t bytes = recv_count * DTypeSize(dtype) * static_cast<uint64_t>(it->second.nranks);
  return EmitCollective(CollectiveKind::kReduceScatter, bytes, comm, stream, -1);
}

CudaError WorkerEmulator::ncclBroadcast(uint64_t count, DType dtype, int root, NcclComm comm,
                                        StreamHandle stream) {
  ++stats_.api_calls;
  (void)root;
  return EmitCollective(CollectiveKind::kBroadcast, count * DTypeSize(dtype), comm, stream, -1);
}

CudaError WorkerEmulator::ncclSend(uint64_t count, DType dtype, int peer, NcclComm comm,
                                   StreamHandle stream) {
  ++stats_.api_calls;
  if (group_depth_ > 0) {
    pending_p2p_.push_back(
        PendingP2p{CollectiveKind::kSend, count * DTypeSize(dtype), comm, stream, peer});
    return CudaError::kSuccess;
  }
  return EmitCollective(CollectiveKind::kSend, count * DTypeSize(dtype), comm, stream, peer);
}

CudaError WorkerEmulator::ncclRecv(uint64_t count, DType dtype, int peer, NcclComm comm,
                                   StreamHandle stream) {
  ++stats_.api_calls;
  if (group_depth_ > 0) {
    pending_p2p_.push_back(
        PendingP2p{CollectiveKind::kRecv, count * DTypeSize(dtype), comm, stream, peer});
    return CudaError::kSuccess;
  }
  return EmitCollective(CollectiveKind::kRecv, count * DTypeSize(dtype), comm, stream, peer);
}

CudaError WorkerEmulator::ncclGroupStart() {
  ++stats_.api_calls;
  ++group_depth_;
  return CudaError::kSuccess;
}

CudaError WorkerEmulator::ncclGroupEnd() {
  ++stats_.api_calls;
  if (group_depth_ == 0) {
    return Flag(CudaError::kErrorInvalidValue, "ncclGroupEnd without start");
  }
  if (--group_depth_ == 0) {
    // Flush batched point-to-point operations in issue order.
    std::vector<PendingP2p> pending;
    pending.swap(pending_p2p_);
    for (const PendingP2p& p2p : pending) {
      const CudaError error = EmitCollective(p2p.kind, p2p.bytes, p2p.comm, p2p.stream, p2p.peer);
      if (error != CudaError::kSuccess) {
        return error;
      }
    }
  }
  return CudaError::kSuccess;
}

WorkerTrace WorkerEmulator::TakeTrace() {
  trace_.peak_device_bytes = peak_device_bytes_;
  trace_.final_device_bytes = used_device_bytes_;
  WorkerTrace result = std::move(trace_);
  trace_ = WorkerTrace{};
  trace_.rank = rank_;
  return result;
}

// ---- JobEmulation --------------------------------------------------------------

WorkerEmulator& JobEmulation::CreateWorker(int rank, const HostClock* clock) {
  workers_.push_back(std::make_unique<WorkerEmulator>(rank, spec_, &bootstrap_, clock));
  return *workers_.back();
}

std::vector<WorkerTrace> JobEmulation::TakeTraces() {
  std::vector<WorkerTrace> traces;
  traces.reserve(workers_.size());
  for (auto& worker : workers_) {
    traces.push_back(worker->TakeTrace());
  }
  std::sort(traces.begin(), traces.end(),
            [](const WorkerTrace& a, const WorkerTrace& b) { return a.rank < b.rank; });
  return traces;
}

}  // namespace maya

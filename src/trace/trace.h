// Execution trace model.
//
// The emulator records one WorkerTrace per (emulated) GPU rank: an ordered
// list of device API operations, each tagged with the measured host-side
// delay since the previous call (§4.2). Kernel launches carry full
// KernelDesc metadata; collectives carry communicator id + sequence number
// so the collator can match them across workers.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cuda/kernel_desc.h"
#include "src/cuda/types.h"
#include "src/hw/network_model.h"
#include "src/trace/rank_set.h"

namespace maya {

enum class TraceOpType : uint8_t {
  kKernelLaunch,
  kCollective,
  kEventRecord,
  kStreamWaitEvent,
  kEventSynchronize,   // host blocks until event completes
  kStreamSynchronize,  // host blocks until stream drains
  kDeviceSynchronize,  // host blocks until all streams drain
  kMalloc,
  kFree,
};

const char* TraceOpTypeName(TraceOpType type);

// Collective operation payload.
struct CollectiveOpInfo {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  uint64_t bytes = 0;       // payload bytes per rank
  uint64_t comm_uid = 0;    // communicator unique id (shared across ranks)
  uint32_t seq = 0;         // per-communicator sequence number on this rank
  int32_t nranks = 0;       // communicator size
  int32_t rank_in_comm = -1;
  int32_t peer = -1;        // global peer rank for send/recv, else -1

  bool operator==(const CollectiveOpInfo&) const = default;
};

// CUDA event payload; `version` disambiguates handle re-use (Appendix A).
struct EventOpInfo {
  uint32_t event_id = 0;
  uint32_t version = 0;

  bool operator==(const EventOpInfo&) const = default;
};

struct MemoryOpInfo {
  uint64_t bytes = 0;
  DevPtr ptr = 0;

  bool operator==(const MemoryOpInfo&) const = default;
};

struct TraceOp {
  TraceOpType type = TraceOpType::kKernelLaunch;
  // Host wall-clock gap between the previous API call on this worker and
  // this one (dispatch overhead + framework host logic).
  double host_delay_us = 0.0;
  // Predicted (or profiled) device-side duration; 0 until the kernel runtime
  // estimation phase annotates the trace.
  double duration_us = 0.0;
  uint64_t stream = 0;  // 0 == legacy default stream

  KernelDesc kernel;          // kKernelLaunch
  CollectiveOpInfo collective;  // kCollective
  EventOpInfo event;          // kEventRecord / kStreamWaitEvent / kEventSynchronize
  MemoryOpInfo memory;        // kMalloc / kFree

  // Hashable structural signature: everything identity-relevant except
  // rank-specific communicator uids and measured times. Two workers whose
  // op signatures match elementwise performed identical work.
  uint64_t StructuralSignature() const;

  // Hashable signature over exactly the fields the event-driven simulator
  // reads from an annotated op: type, stream, host delay and annotated
  // duration (bit patterns), event identity, and collective identity. The
  // caller supplies `comm_token` for collective ops — the simulator passes
  // the communicator's first-use index, so the sim-cache fingerprint is
  // independent of uid numbering; ignored for every other op type.
  uint64_t AnnotatedSignature(uint64_t comm_token = 0) const;

  // Exact (bit-level for doubles) equality over every recorded field; the
  // invariant checked by the parallel-vs-sequential emulation tests.
  bool operator==(const TraceOp&) const = default;
};

// Communicator membership evidence recorded at ncclCommInitRank time.
struct CommInitRecord {
  uint64_t comm_uid = 0;
  int32_t nranks = 0;
  int32_t rank_in_comm = -1;

  bool operator==(const CommInitRecord&) const = default;
};

struct WorkerTrace {
  int rank = -1;
  std::vector<TraceOp> ops;
  std::vector<CommInitRecord> comm_inits;
  uint64_t peak_device_bytes = 0;
  uint64_t final_device_bytes = 0;
  // Virtual folded ranks (hyperscale mode, §7.4): every global rank this
  // trace stands for, including `rank` itself. Empty means the trace
  // represents only its own rank (full emulation). Populated by the
  // virtual-folds launcher so folded twins are never emulated and ride
  // through collation/simulation as a multiplicity attached to the
  // representative.
  RankSet represented_ranks;

  // Rolling structural fingerprint over all ops; equal fingerprints mean
  // (w.h.p.) identical operation sequences — the dedup criterion of §4.2.
  uint64_t Fingerprint() const;

  double TotalHostDelayUs() const;
  size_t KernelLaunchCount() const;
  size_t CollectiveCount() const;
  std::string Summary() const;

  bool operator==(const WorkerTrace&) const = default;
};

}  // namespace maya

#endif  // SRC_TRACE_TRACE_H_

#include "src/trace/serialization.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/strings.h"

namespace maya {
namespace {

void WriteOp(JsonWriter& w, const TraceOp& op) {
  w.BeginObject();
  w.Field("type", std::string_view(TraceOpTypeName(op.type)));
  w.Field("stream", op.stream);
  w.Field("host_delay_us", op.host_delay_us);
  if (op.duration_us != 0.0) {
    w.Field("duration_us", op.duration_us);
  }
  switch (op.type) {
    case TraceOpType::kKernelLaunch: {
      w.KeyedBeginObject("kernel");
      w.Field("kind", std::string_view(KernelKindName(op.kernel.kind)));
      w.Field("op", std::string_view(KernelKindCudaSymbol(op.kernel.kind)));
      w.Field("dtype", std::string_view(DTypeName(op.kernel.dtype)));
      w.KeyedBeginArray("params");
      for (int64_t p : op.kernel.params) {
        w.Int(p);
      }
      w.EndArray();
      w.Field("flops", op.kernel.flops);
      w.Field("bytes_read", op.kernel.bytes_read);
      w.Field("bytes_written", op.kernel.bytes_written);
      if (op.kernel.fused_op_count != 0) {
        w.Field("fused_ops", static_cast<int64_t>(op.kernel.fused_op_count));
      }
      w.EndObject();
      break;
    }
    case TraceOpType::kCollective: {
      w.KeyedBeginObject("collective");
      w.Field("kind", std::string_view(CollectiveKindName(op.collective.kind)));
      w.Field("bytes", op.collective.bytes);
      w.Field("comm_uid", op.collective.comm_uid);
      w.Field("seq", static_cast<uint64_t>(op.collective.seq));
      w.Field("nranks", static_cast<int64_t>(op.collective.nranks));
      w.Field("rank_in_comm", static_cast<int64_t>(op.collective.rank_in_comm));
      w.Field("peer", static_cast<int64_t>(op.collective.peer));
      w.EndObject();
      break;
    }
    case TraceOpType::kEventRecord:
    case TraceOpType::kStreamWaitEvent:
    case TraceOpType::kEventSynchronize: {
      w.KeyedBeginObject("event");
      w.Field("id", static_cast<uint64_t>(op.event.event_id));
      w.Field("version", static_cast<uint64_t>(op.event.version));
      w.EndObject();
      break;
    }
    case TraceOpType::kMalloc:
    case TraceOpType::kFree: {
      w.KeyedBeginObject("memory");
      w.Field("bytes", op.memory.bytes);
      w.Field("ptr", op.memory.ptr);
      w.EndObject();
      break;
    }
    case TraceOpType::kStreamSynchronize:
    case TraceOpType::kDeviceSynchronize:
      break;
  }
  w.EndObject();
}

// Span triples [base, count, stride] — the wire form of a RankSet. Emitted
// in canonical span order, so equal sets serialize to equal bytes.
void WriteRankSpans(JsonWriter& w, const RankSet& set) {
  w.BeginArray();
  for (const RankSpan& span : set.spans()) {
    w.BeginArray();
    w.Int(span.base);
    w.Int(span.count);
    w.Int(span.stride);
    w.EndArray();
  }
  w.EndArray();
}

Result<RankSet> ParseRankSpans(const JsonValue& value) {
  const JsonArray* spans = nullptr;
  MAYA_ASSIGN_OR_RETURN(spans, ToArray(value));
  RankSet set;
  int64_t last = -1;
  for (const JsonValue& span_value : *spans) {
    const JsonArray* triple = nullptr;
    MAYA_ASSIGN_OR_RETURN(triple, ToArray(span_value));
    if (triple->size() != 3) {
      return Status::InvalidArgument("rank span must be a [base, count, stride] triple");
    }
    int64_t base = 0;
    int64_t count = 0;
    int64_t stride = 0;
    MAYA_ASSIGN_OR_RETURN(base, ToInt((*triple)[0]));
    MAYA_ASSIGN_OR_RETURN(count, ToInt((*triple)[1]));
    MAYA_ASSIGN_OR_RETURN(stride, ToInt((*triple)[2]));
    if (count <= 0 || stride <= 0 || base < 0) {
      return Status::InvalidArgument(
          StrFormat("invalid rank span [%lld, %lld, %lld]", static_cast<long long>(base),
                    static_cast<long long>(count), static_cast<long long>(stride)));
    }
    // RankSet's ascending contract (and span disjointness) enforced at the
    // trust boundary: each span must start past the previous span's end.
    if (base <= last) {
      return Status::InvalidArgument("rank spans must be ascending and disjoint");
    }
    last = base + (count - 1) * stride;
    set.AddSpan(base, count, stride);
  }
  return set;
}

void WriteWorker(JsonWriter& w, const WorkerTrace& worker) {
  w.BeginObject();
  w.Field("rank", static_cast<int64_t>(worker.rank));
  if (!worker.represented_ranks.empty()) {
    w.Key("represented");
    WriteRankSpans(w, worker.represented_ranks);
  }
  w.Field("peak_device_bytes", worker.peak_device_bytes);
  w.Field("final_device_bytes", worker.final_device_bytes);
  w.KeyedBeginArray("comm_inits");
  for (const CommInitRecord& init : worker.comm_inits) {
    w.BeginObject();
    w.Field("uid", init.comm_uid);
    w.Field("nranks", static_cast<int64_t>(init.nranks));
    w.Field("rank_in_comm", static_cast<int64_t>(init.rank_in_comm));
    w.EndObject();
  }
  w.EndArray();
  w.KeyedBeginArray("events");
  for (const TraceOp& op : worker.ops) {
    WriteOp(w, op);
  }
  w.EndArray();
  w.EndObject();
}

// Traces arrive over the service wire as untrusted payloads, so every typed
// access goes through the non-aborting To* accessors.
Result<TraceOp> ParseOp(const JsonValue& value) {
  TraceOp op;
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"type", "stream", "host_delay_us"}));
  std::string type_name;
  MAYA_ASSIGN_OR_RETURN(type_name, ToString(value.at("type")));
  MAYA_ASSIGN_OR_RETURN(op.type, TraceOpTypeFromName(type_name));
  MAYA_ASSIGN_OR_RETURN(op.stream, ToUint(value.at("stream")));
  MAYA_ASSIGN_OR_RETURN(op.host_delay_us, ToNumber(value.at("host_delay_us")));
  if (value.Has("duration_us")) {
    MAYA_ASSIGN_OR_RETURN(op.duration_us, ToNumber(value.at("duration_us")));
  }
  switch (op.type) {
    case TraceOpType::kKernelLaunch: {
      MAYA_RETURN_IF_ERROR(RequireKeys(value, {"kernel"}));
      const JsonValue& k = value.at("kernel");
      MAYA_RETURN_IF_ERROR(RequireKeys(
          k, {"kind", "dtype", "params", "flops", "bytes_read", "bytes_written"}));
      std::string kind_name;
      MAYA_ASSIGN_OR_RETURN(kind_name, ToString(k.at("kind")));
      MAYA_ASSIGN_OR_RETURN(op.kernel.kind, KernelKindFromName(kind_name));
      std::string dtype_name;
      MAYA_ASSIGN_OR_RETURN(dtype_name, ToString(k.at("dtype")));
      MAYA_ASSIGN_OR_RETURN(op.kernel.dtype, DTypeFromName(dtype_name));
      const JsonArray* params = nullptr;
      MAYA_ASSIGN_OR_RETURN(params, ToArray(k.at("params")));
      if (params->size() != op.kernel.params.size()) {
        return Status::InvalidArgument("kernel params must have 8 entries");
      }
      for (size_t i = 0; i < params->size(); ++i) {
        MAYA_ASSIGN_OR_RETURN(op.kernel.params[i], ToInt((*params)[i]));
      }
      MAYA_ASSIGN_OR_RETURN(op.kernel.flops, ToNumber(k.at("flops")));
      MAYA_ASSIGN_OR_RETURN(op.kernel.bytes_read, ToNumber(k.at("bytes_read")));
      MAYA_ASSIGN_OR_RETURN(op.kernel.bytes_written, ToNumber(k.at("bytes_written")));
      if (k.Has("fused_ops")) {
        int64_t fused = 0;
        MAYA_ASSIGN_OR_RETURN(fused, ToInt(k.at("fused_ops")));
        op.kernel.fused_op_count = static_cast<int>(fused);
      }
      break;
    }
    case TraceOpType::kCollective: {
      MAYA_RETURN_IF_ERROR(RequireKeys(value, {"collective"}));
      const JsonValue& c = value.at("collective");
      MAYA_RETURN_IF_ERROR(RequireKeys(
          c, {"kind", "bytes", "comm_uid", "seq", "nranks", "rank_in_comm", "peer"}));
      std::string kind_name;
      MAYA_ASSIGN_OR_RETURN(kind_name, ToString(c.at("kind")));
      MAYA_ASSIGN_OR_RETURN(op.collective.kind, CollectiveKindFromName(kind_name));
      MAYA_ASSIGN_OR_RETURN(op.collective.bytes, ToUint(c.at("bytes")));
      MAYA_ASSIGN_OR_RETURN(op.collective.comm_uid, ToUint(c.at("comm_uid")));
      uint64_t seq = 0;
      MAYA_ASSIGN_OR_RETURN(seq, ToUint(c.at("seq")));
      op.collective.seq = static_cast<uint32_t>(seq);
      int64_t field = 0;
      MAYA_ASSIGN_OR_RETURN(field, ToInt(c.at("nranks")));
      op.collective.nranks = static_cast<int32_t>(field);
      MAYA_ASSIGN_OR_RETURN(field, ToInt(c.at("rank_in_comm")));
      op.collective.rank_in_comm = static_cast<int32_t>(field);
      MAYA_ASSIGN_OR_RETURN(field, ToInt(c.at("peer")));
      op.collective.peer = static_cast<int32_t>(field);
      break;
    }
    case TraceOpType::kEventRecord:
    case TraceOpType::kStreamWaitEvent:
    case TraceOpType::kEventSynchronize: {
      MAYA_RETURN_IF_ERROR(RequireKeys(value, {"event"}));
      const JsonValue& e = value.at("event");
      MAYA_RETURN_IF_ERROR(RequireKeys(e, {"id", "version"}));
      uint64_t field = 0;
      MAYA_ASSIGN_OR_RETURN(field, ToUint(e.at("id")));
      op.event.event_id = static_cast<uint32_t>(field);
      MAYA_ASSIGN_OR_RETURN(field, ToUint(e.at("version")));
      op.event.version = static_cast<uint32_t>(field);
      break;
    }
    case TraceOpType::kMalloc:
    case TraceOpType::kFree: {
      MAYA_RETURN_IF_ERROR(RequireKeys(value, {"memory"}));
      const JsonValue& m = value.at("memory");
      MAYA_RETURN_IF_ERROR(RequireKeys(m, {"bytes", "ptr"}));
      MAYA_ASSIGN_OR_RETURN(op.memory.bytes, ToUint(m.at("bytes")));
      MAYA_ASSIGN_OR_RETURN(op.memory.ptr, ToUint(m.at("ptr")));
      break;
    }
    case TraceOpType::kStreamSynchronize:
    case TraceOpType::kDeviceSynchronize:
      break;
  }
  return op;
}

Result<WorkerTrace> ParseWorkerValue(const JsonValue& v) {
  WorkerTrace worker;
  // Unknown keys are ignored, so traces written with the retired
  // per-worker stub keys still parse.
  MAYA_RETURN_IF_ERROR(RequireKeys(v, {"rank", "peak_device_bytes", "final_device_bytes",
                                       "comm_inits", "events"}));
  int64_t field = 0;
  MAYA_ASSIGN_OR_RETURN(field, ToInt(v.at("rank")));
  worker.rank = static_cast<int>(field);
  MAYA_ASSIGN_OR_RETURN(worker.peak_device_bytes, ToUint(v.at("peak_device_bytes")));
  MAYA_ASSIGN_OR_RETURN(worker.final_device_bytes, ToUint(v.at("final_device_bytes")));
  if (v.Has("represented")) {
    MAYA_ASSIGN_OR_RETURN(worker.represented_ranks, ParseRankSpans(v.at("represented")));
    if (!worker.represented_ranks.contains(worker.rank)) {
      return Status::InvalidArgument(StrFormat(
          "worker rank %d is not a member of its own represented set", worker.rank));
    }
  }
  const JsonArray* comm_inits = nullptr;
  MAYA_ASSIGN_OR_RETURN(comm_inits, ToArray(v.at("comm_inits")));
  for (const JsonValue& init_value : *comm_inits) {
    MAYA_RETURN_IF_ERROR(RequireKeys(init_value, {"uid", "nranks", "rank_in_comm"}));
    CommInitRecord init;
    MAYA_ASSIGN_OR_RETURN(init.comm_uid, ToUint(init_value.at("uid")));
    MAYA_ASSIGN_OR_RETURN(field, ToInt(init_value.at("nranks")));
    init.nranks = static_cast<int32_t>(field);
    MAYA_ASSIGN_OR_RETURN(field, ToInt(init_value.at("rank_in_comm")));
    init.rank_in_comm = static_cast<int32_t>(field);
    worker.comm_inits.push_back(init);
  }
  const JsonArray* events = nullptr;
  MAYA_ASSIGN_OR_RETURN(events, ToArray(v.at("events")));
  for (const JsonValue& op_value : *events) {
    Result<TraceOp> op = ParseOp(op_value);
    if (!op.ok()) {
      return op.status();
    }
    worker.ops.push_back(*op);
  }
  return worker;
}

}  // namespace

Result<TraceOpType> TraceOpTypeFromName(const std::string& name) {
  static constexpr TraceOpType kAll[] = {
      TraceOpType::kKernelLaunch,     TraceOpType::kCollective,
      TraceOpType::kEventRecord,      TraceOpType::kStreamWaitEvent,
      TraceOpType::kEventSynchronize, TraceOpType::kStreamSynchronize,
      TraceOpType::kDeviceSynchronize, TraceOpType::kMalloc,
      TraceOpType::kFree,
  };
  for (TraceOpType type : kAll) {
    if (name == TraceOpTypeName(type)) {
      return type;
    }
  }
  return Status::InvalidArgument("unknown op type '" + name + "'");
}

Result<KernelKind> KernelKindFromName(const std::string& name) {
  for (int i = 0; i < static_cast<int>(KernelKind::kNumKinds); ++i) {
    const auto kind = static_cast<KernelKind>(i);
    if (name == KernelKindName(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown kernel kind '" + name + "'");
}

Result<DType> DTypeFromName(const std::string& name) {
  static constexpr DType kAll[] = {DType::kFp32, DType::kFp16, DType::kBf16, DType::kFp64,
                                   DType::kInt64, DType::kInt32, DType::kInt8, DType::kUint8};
  for (DType dtype : kAll) {
    if (name == DTypeName(dtype)) {
      return dtype;
    }
  }
  return Status::InvalidArgument("unknown dtype '" + name + "'");
}

Result<CollectiveKind> CollectiveKindFromName(const std::string& name) {
  static constexpr CollectiveKind kAll[] = {
      CollectiveKind::kAllReduce, CollectiveKind::kAllGather, CollectiveKind::kReduceScatter,
      CollectiveKind::kBroadcast, CollectiveKind::kReduce,    CollectiveKind::kAllToAll,
      CollectiveKind::kSend,      CollectiveKind::kRecv,
  };
  for (CollectiveKind kind : kAll) {
    if (name == CollectiveKindName(kind)) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown collective kind '" + name + "'");
}

std::string SerializeWorkerTrace(const WorkerTrace& worker) {
  JsonWriter w;
  WriteWorker(w, worker);
  return w.str();
}

std::string SerializeJobTrace(const JobTrace& job) {
  JsonWriter w;
  w.BeginObject();
  w.Field("world_size", static_cast<int64_t>(job.world_size));
  // Canonical form: comms sorted by uid, so equal traces serialize to equal
  // bytes regardless of the unordered map's insertion history (the service's
  // strict round-trip contract).
  std::vector<uint64_t> uids;
  uids.reserve(job.comms.size());
  for (const auto& [uid, group] : job.comms) {
    (void)group;
    uids.push_back(uid);
  }
  std::sort(uids.begin(), uids.end());
  w.KeyedBeginArray("comms");
  for (uint64_t uid : uids) {
    const CommGroup& group = job.comms.at(uid);
    w.BeginObject();
    w.Field("uid", uid);
    w.Field("nranks", static_cast<int64_t>(group.nranks));
    w.KeyedBeginArray("members");
    for (int member : group.members) {
      w.Int(member);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // Compressed fold sets: [base, count, stride] span triples, so a worker
  // standing for an entire data-parallel slice serializes in O(1) rather
  // than one integer per folded rank.
  w.KeyedBeginArray("folded_spans");
  for (const RankSet& ranks : job.folded_ranks) {
    WriteRankSpans(w, ranks);
  }
  w.EndArray();
  w.KeyedBeginArray("workers");
  for (const WorkerTrace& worker : job.workers) {
    WriteWorker(w, worker);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Result<WorkerTrace> ParseWorkerTrace(const std::string& json) {
  Result<JsonValue> root = ParseJson(json);
  if (!root.ok()) {
    return root.status();
  }
  return ParseWorkerValue(*root);
}

Result<JobTrace> ParseJobTrace(const JsonValue& value) {
  // The dense pre-span "folded_ranks" form is no longer read: a trace
  // without "folded_spans" fails here like any other missing key.
  MAYA_RETURN_IF_ERROR(RequireKeys(value, {"world_size", "comms", "folded_spans", "workers"}));
  JobTrace job;
  int64_t field = 0;
  MAYA_ASSIGN_OR_RETURN(field, ToInt(value.at("world_size")));
  job.world_size = static_cast<int>(field);
  // The fold validation below walks a per-rank claim table; bound the
  // allocation an adversarial world_size could force.
  constexpr int64_t kMaxWorldSize = int64_t{1} << 22;  // 4M ranks
  if (field < 0 || field > kMaxWorldSize) {
    return Status::InvalidArgument(
        StrFormat("world_size %lld outside [0, %lld]", static_cast<long long>(field),
                  static_cast<long long>(kMaxWorldSize)));
  }
  const JsonArray* comms = nullptr;
  MAYA_ASSIGN_OR_RETURN(comms, ToArray(value.at("comms")));
  for (const JsonValue& comm_value : *comms) {
    MAYA_RETURN_IF_ERROR(RequireKeys(comm_value, {"uid", "nranks", "members"}));
    CommGroup group;
    MAYA_ASSIGN_OR_RETURN(group.uid, ToUint(comm_value.at("uid")));
    MAYA_ASSIGN_OR_RETURN(field, ToInt(comm_value.at("nranks")));
    group.nranks = static_cast<int32_t>(field);
    const JsonArray* members = nullptr;
    MAYA_ASSIGN_OR_RETURN(members, ToArray(comm_value.at("members")));
    for (const JsonValue& member : *members) {
      MAYA_ASSIGN_OR_RETURN(field, ToInt(member));
      group.members.push_back(static_cast<int>(field));
    }
    if (group.nranks != static_cast<int32_t>(group.members.size())) {
      return Status::InvalidArgument(
          StrFormat("comm %llu declares %d ranks but lists %zu members",
                    static_cast<unsigned long long>(group.uid), group.nranks,
                    group.members.size()));
    }
    if (!job.comms.emplace(group.uid, std::move(group)).second) {
      return Status::InvalidArgument("duplicate comm uid in job trace");
    }
  }
  const JsonArray* folded = nullptr;
  MAYA_ASSIGN_OR_RETURN(folded, ToArray(value.at("folded_spans")));
  for (const JsonValue& spans_value : *folded) {
    RankSet ranks;
    MAYA_ASSIGN_OR_RETURN(ranks, ParseRankSpans(spans_value));
    job.folded_ranks.push_back(std::move(ranks));
  }
  const JsonArray* workers = nullptr;
  MAYA_ASSIGN_OR_RETURN(workers, ToArray(value.at("workers")));
  for (const JsonValue& worker_value : *workers) {
    Result<WorkerTrace> worker = ParseWorkerValue(worker_value);
    if (!worker.ok()) {
      return worker.status();
    }
    job.workers.push_back(*std::move(worker));
  }

  // Boundary validation: the simulator CHECK-fails (process abort) or
  // silently desynchronizes on inconsistent traces, so a multi-tenant server
  // must reject them here.
  if (job.folded_ranks.size() != job.workers.size()) {
    return Status::InvalidArgument(
        StrFormat("folded rank sets (%zu) do not match workers (%zu)",
                  job.folded_ranks.size(), job.workers.size()));
  }
  // Folded rank sets must be non-empty and disjoint: the simulator resolves
  // rank -> worker through this table, and an overlap would make two workers
  // claim the same collective participant (wrong synchronization). The claim
  // table stays per-rank (O(world) parse-time memory, bounded above) because
  // detecting overlaps between arbitrary strided spans needs per-element
  // evidence; lookups after validation use the span index.
  std::vector<int> rank_owner(static_cast<size_t>(std::max(job.world_size, 1)), -1);
  for (size_t w = 0; w < job.workers.size(); ++w) {
    if (job.folded_ranks[w].empty()) {
      return Status::InvalidArgument(StrFormat("worker %zu has no folded ranks", w));
    }
    for (int64_t rank : job.folded_ranks[w]) {
      // Out-of-range ranks would silently drop from expected_joins and abort
      // the collective rendezvous mid-simulation.
      if (rank < 0 || rank >= job.world_size) {
        return Status::InvalidArgument(
            StrFormat("worker %zu folds rank %lld outside world size %d", w,
                      static_cast<long long>(rank), job.world_size));
      }
      int& owner = rank_owner[static_cast<size_t>(rank)];
      if (owner != -1) {
        return Status::InvalidArgument(
            StrFormat("rank %lld is claimed by workers %d and %zu",
                      static_cast<long long>(rank), owner, w));
      }
      owner = static_cast<int>(w);
    }
  }
  // Workers expected to join each comm's collectives (the simulator's
  // expected_joins), precomputed once so the per-op check is O(1).
  std::unordered_map<uint64_t, std::set<size_t>> comm_workers;
  for (const auto& [uid, group] : job.comms) {
    std::set<size_t>& joiners = comm_workers[uid];
    for (int member : group.members) {
      if (member >= 0 && member < job.world_size && rank_owner[static_cast<size_t>(member)] != -1) {
        joiners.insert(static_cast<size_t>(rank_owner[static_cast<size_t>(member)]));
      }
    }
  }
  for (size_t w = 0; w < job.workers.size(); ++w) {
    const WorkerTrace& worker = job.workers[w];
    // One collective join per (comm, seq) per worker — a duplicate would
    // over-fill the simulator's collective waitmap.
    std::set<std::pair<uint64_t, uint32_t>> seen_joins;
    for (const TraceOp& op : worker.ops) {
      if (op.type != TraceOpType::kCollective) {
        continue;
      }
      auto comm_it = job.comms.find(op.collective.comm_uid);
      if (comm_it == job.comms.end()) {
        return Status::InvalidArgument(
            StrFormat("collective references undeclared comm uid %llu",
                      static_cast<unsigned long long>(op.collective.comm_uid)));
      }
      const CommGroup& group = comm_it->second;
      if (op.collective.nranks != group.nranks) {
        return Status::InvalidArgument(
            StrFormat("collective on comm %llu claims %d ranks but the comm has %d",
                      static_cast<unsigned long long>(op.collective.comm_uid),
                      op.collective.nranks, group.nranks));
      }
      // The issuing worker must represent at least one member of the comm,
      // or it would join a collective the simulator never expects it in.
      if (comm_workers.at(op.collective.comm_uid).count(w) == 0) {
        return Status::InvalidArgument(
            StrFormat("worker %zu issues a collective on comm %llu but represents none of "
                      "its members",
                      w, static_cast<unsigned long long>(op.collective.comm_uid)));
      }
      if (!seen_joins.emplace(op.collective.comm_uid, op.collective.seq).second) {
        return Status::InvalidArgument(
            StrFormat("worker %zu joins (comm %llu, seq %u) more than once", w,
                      static_cast<unsigned long long>(op.collective.comm_uid),
                      op.collective.seq));
      }
    }
  }
  return job;
}

Result<JobTrace> ParseJobTrace(const std::string& json) {
  Result<JsonValue> root = ParseJson(json);
  if (!root.ok()) {
    return root.status();
  }
  return ParseJobTrace(*root);
}

}  // namespace maya

#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace maya {
namespace {

// Key for (event id, version): versions disambiguate CUDA event handle
// re-use (Appendix A, CudaEventWaitMap).
uint64_t EventKey(uint32_t id, uint32_t version) {
  return (static_cast<uint64_t>(id) << 32) | version;
}

// Key for (communicator uid, sequence number).
struct CollKey {
  uint64_t uid;
  uint32_t seq;
  bool operator==(const CollKey&) const = default;
};

struct CollKeyHash {
  size_t operator()(const CollKey& key) const {
    return static_cast<size_t>(key.uid * 0x9e3779b97f4a7c15ULL ^ key.seq);
  }
};

enum class SimEventType { kHostAdvance, kOpComplete };

struct SimEvent {
  double time = 0.0;
  uint64_t sequence = 0;  // FIFO tie-break for simultaneous events
  SimEventType type = SimEventType::kHostAdvance;
  int worker = -1;  // index into JobTrace::workers
  uint64_t stream = 0;
};

struct SimEventLater {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.sequence > b.sequence;
  }
};

// Min-heap over a caller-reserved vector: std::priority_queue cannot reserve
// its backing store, and the event queue is rebuilt for every trial of a
// search, so the regrowth churn is hot (Fig. 13 simulator column).
class SimEventQueue {
 public:
  void Reserve(size_t capacity) { events_.reserve(capacity); }
  bool empty() const { return events_.empty(); }
  void Push(const SimEvent& event) {
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), SimEventLater{});
  }
  SimEvent Pop() {
    std::pop_heap(events_.begin(), events_.end(), SimEventLater{});
    const SimEvent event = events_.back();
    events_.pop_back();
    return event;
  }

 private:
  std::vector<SimEvent> events_;
};

struct QueuedOp {
  size_t op_index;
  double enqueue_time;
};

struct StreamState {
  std::deque<QueuedOp> queue;
  bool busy = false;             // an op is executing / joined a collective
  bool blocked_on_event = false; // head is a waiting kStreamWaitEvent marker
  double ready_time = 0.0;       // completion time of the last finished op
  size_t executing_op = 0;
  double executing_start = 0.0;
};

enum class HostBlock { kNone, kEvent, kStream, kDevice };

struct WorkerState {
  const WorkerTrace* trace = nullptr;
  size_t next_op = 0;
  double host_time = 0.0;
  double host_busy_us = 0.0;
  HostBlock block = HostBlock::kNone;
  uint64_t block_key = 0;  // event key or stream id

  std::unordered_map<uint64_t, StreamState> streams;
  std::unordered_map<uint64_t, double> event_completion;  // EventKey -> time
  // Streams of this worker blocked on a future (event, version) record.
  std::unordered_map<uint64_t, std::vector<uint64_t>> event_stream_waiters;

  // Device-level occupancy accounting.
  int active_collectives = 0;
  double comm_window_start = 0.0;
  double comm_busy_us = 0.0;
  double compute_busy_us = 0.0;
  double exposed_comm_us = 0.0;
  double last_comm_compute_overlap_us = 0.0;
  int active_compute = 0;
  double compute_window_start = 0.0;
  double finish_us = 0.0;
  uint64_t events = 0;  // events processed for this worker
};

struct CollectiveParticipant {
  int worker;
  uint64_t stream;
  double join_time;
};

struct CollectiveWait {
  std::vector<CollectiveParticipant> joined;
};

// Replays every worker of `job` through one event heap and returns the
// per-worker metrics, or a stuck-worker diagnostic if the trace deadlocks.
// `expected_joins` maps each referenced communicator to its number of
// distinct joining workers.
Result<std::vector<WorkerSimMetrics>> Replay(
    const JobTrace& job, const std::unordered_map<uint64_t, int>& expected_joins,
    double dispatch_latency_us, double compute_contention_factor) {
  const size_t worker_count = job.workers.size();
  std::vector<WorkerState> workers(worker_count);
  size_t total_ops = 0;
  for (size_t w = 0; w < worker_count; ++w) {
    workers[w].trace = &job.workers[w];
    total_ops += workers[w].trace->ops.size();
  }

  // Pre-size the event heap: every op produces at most one completion event,
  // plus host wake-ups (bounded by sync ops) and the initial per-worker kick.
  SimEventQueue event_queue;
  event_queue.Reserve(total_ops / 2 + worker_count + 16);
  uint64_t next_sequence = 0;

  auto push_event = [&](double time, SimEventType type, int worker, uint64_t stream) {
    event_queue.Push(SimEvent{time, next_sequence++, type, worker, stream});
  };

  // NetworkCollectiveWaitMap: participants gathered per (uid, seq).
  std::unordered_map<CollKey, CollectiveWait, CollKeyHash> collective_waits;
  collective_waits.reserve(expected_joins.size() * 2);

  // ---- Device occupancy accounting helpers ---------------------------------

  auto comm_begin = [&](WorkerState& worker, double time) {
    if (worker.active_collectives++ == 0) {
      worker.comm_window_start = time;
    }
  };
  auto comm_end = [&](WorkerState& worker, double time) {
    CHECK_GT(worker.active_collectives, 0);
    if (--worker.active_collectives == 0) {
      const double window = time - worker.comm_window_start;
      worker.comm_busy_us += window;
      worker.exposed_comm_us += std::max(0.0, window - worker.last_comm_compute_overlap_us);
      worker.last_comm_compute_overlap_us = 0.0;
    }
  };
  auto compute_begin = [&](WorkerState& worker, double time) {
    if (worker.active_compute++ == 0) {
      worker.compute_window_start = time;
    }
  };
  auto compute_end = [&](WorkerState& worker, double time) {
    CHECK_GT(worker.active_compute, 0);
    if (--worker.active_compute == 0) {
      const double window = time - worker.compute_window_start;
      worker.compute_busy_us += window;
      if (worker.active_collectives > 0) {
        worker.last_comm_compute_overlap_us += window;
      }
    }
  };

  // ---- Stream engine --------------------------------------------------------

  // Starts ops from the head of a stream until it blocks or empties.
  std::function<void(int, uint64_t, double)> advance_stream;

  // CudaEventWaitMap release path (Appendix A): record the completion, wake
  // blocked streams of this worker, and wake the host if it is inside
  // cudaEventSynchronize on this (event, version).
  auto complete_event_record = [&](WorkerState& worker, int worker_index, uint64_t key,
                                   double time) {
    worker.event_completion[key] = time;
    auto it = worker.event_stream_waiters.find(key);
    if (it != worker.event_stream_waiters.end()) {
      std::vector<uint64_t> blocked = std::move(it->second);
      worker.event_stream_waiters.erase(it);
      for (uint64_t blocked_stream : blocked) {
        StreamState& stream = worker.streams[blocked_stream];
        stream.blocked_on_event = false;
        stream.ready_time = std::max(stream.ready_time, time);
        advance_stream(worker_index, blocked_stream, time);
      }
    }
    if (worker.block == HostBlock::kEvent && worker.block_key == key) {
      push_event(time, SimEventType::kHostAdvance, worker_index, 0);
    }
  };

  advance_stream = [&](int worker_index, uint64_t stream_id, double time) {
    (void)time;  // stream progress is driven by op-local timestamps
    WorkerState& worker = workers[static_cast<size_t>(worker_index)];
    StreamState& stream = worker.streams[stream_id];
    while (!stream.busy && !stream.blocked_on_event && !stream.queue.empty()) {
      const QueuedOp queued = stream.queue.front();
      const TraceOp& op = worker.trace->ops[queued.op_index];
      const double earliest = std::max(
          stream.ready_time, queued.enqueue_time + dispatch_latency_us);
      switch (op.type) {
        case TraceOpType::kEventRecord: {
          // Markers complete instantly once reached in stream order.
          stream.queue.pop_front();
          stream.ready_time = std::max(stream.ready_time, queued.enqueue_time);
          complete_event_record(worker, worker_index,
                                EventKey(op.event.event_id, op.event.version),
                                stream.ready_time);
          continue;
        }
        case TraceOpType::kStreamWaitEvent: {
          if (op.event.version == 0) {
            stream.queue.pop_front();  // wait on never-recorded event: no-op
            continue;
          }
          const uint64_t key = EventKey(op.event.event_id, op.event.version);
          auto completed = worker.event_completion.find(key);
          if (completed != worker.event_completion.end()) {
            stream.ready_time = std::max(stream.ready_time, completed->second);
            stream.queue.pop_front();
            continue;
          }
          stream.blocked_on_event = true;
          worker.event_stream_waiters[key].push_back(stream_id);
          return;
        }
        case TraceOpType::kKernelLaunch: {
          stream.queue.pop_front();
          stream.busy = true;
          stream.executing_op = queued.op_index;
          double duration = op.duration_us;
          if (compute_contention_factor > 1.0 && worker.active_collectives > 0) {
            duration *= compute_contention_factor;
          }
          stream.executing_start = earliest;
          compute_begin(worker, earliest);
          push_event(earliest + duration, SimEventType::kOpComplete, worker_index, stream_id);
          return;
        }
        case TraceOpType::kCollective: {
          stream.queue.pop_front();
          stream.busy = true;
          stream.executing_op = queued.op_index;
          stream.executing_start = earliest;
          comm_begin(worker, earliest);
          const CollKey key{op.collective.comm_uid, op.collective.seq};
          CollectiveWait& wait = collective_waits[key];
          wait.joined.push_back(CollectiveParticipant{worker_index, stream_id, earliest});
          const int expected = expected_joins.at(op.collective.comm_uid);
          CHECK_LE(static_cast<int>(wait.joined.size()), expected);
          if (static_cast<int>(wait.joined.size()) == expected) {
            // Last worker arrived: release everyone after the wire time
            // (workers move in lockstep, Appendix A).
            double join_time = 0.0;
            for (const CollectiveParticipant& participant : wait.joined) {
              join_time = std::max(join_time, participant.join_time);
            }
            const double completion = join_time + op.duration_us;
            for (const CollectiveParticipant& participant : wait.joined) {
              push_event(completion, SimEventType::kOpComplete, participant.worker,
                         participant.stream);
            }
            collective_waits.erase(key);
          }
          return;
        }
        default:
          CHECK(false) << "op type " << TraceOpTypeName(op.type) << " cannot be stream-enqueued";
      }
    }
  };

  // True when the host's current blocking dependency is satisfied.
  auto host_dependency_ready = [&](WorkerState& worker, double* ready_at) {
    const TraceOp& op = worker.trace->ops[worker.next_op];
    switch (worker.block) {
      case HostBlock::kEvent: {
        auto it = worker.event_completion.find(worker.block_key);
        if (it == worker.event_completion.end()) {
          return false;
        }
        *ready_at = it->second;
        return true;
      }
      case HostBlock::kStream: {
        StreamState& stream = worker.streams[op.stream];
        if (stream.busy || stream.blocked_on_event || !stream.queue.empty()) {
          return false;
        }
        *ready_at = stream.ready_time;
        return true;
      }
      case HostBlock::kDevice: {
        double latest = 0.0;
        for (const auto& [id, stream] : worker.streams) {
          (void)id;
          if (stream.busy || stream.blocked_on_event || !stream.queue.empty()) {
            return false;
          }
          latest = std::max(latest, stream.ready_time);
        }
        *ready_at = latest;
        return true;
      }
      case HostBlock::kNone:
        *ready_at = 0.0;
        return true;
    }
    return false;
  };

  // Host dispatch queue: processes trace ops in order, issuing async ops to
  // streams and blocking on synchronization ops (Algorithm 1/2).
  auto advance_host = [&](int worker_index, double time) {
    WorkerState& worker = workers[static_cast<size_t>(worker_index)];
    while (worker.next_op < worker.trace->ops.size()) {
      const TraceOp& op = worker.trace->ops[worker.next_op];
      const double issue = worker.host_time + op.host_delay_us;
      switch (op.type) {
        case TraceOpType::kKernelLaunch:
        case TraceOpType::kCollective:
        case TraceOpType::kEventRecord:
        case TraceOpType::kStreamWaitEvent: {
          worker.host_busy_us += op.host_delay_us;
          worker.host_time = issue;
          StreamState& stream = worker.streams[op.stream];
          stream.queue.push_back(QueuedOp{worker.next_op, issue});
          ++worker.next_op;
          worker.block = HostBlock::kNone;
          advance_stream(worker_index, op.stream, issue);
          continue;
        }
        case TraceOpType::kMalloc:
        case TraceOpType::kFree: {
          worker.host_busy_us += op.host_delay_us;
          worker.host_time = issue;
          ++worker.next_op;
          continue;
        }
        case TraceOpType::kEventSynchronize:
        case TraceOpType::kStreamSynchronize:
        case TraceOpType::kDeviceSynchronize: {
          // Establish the block descriptor, then test it.
          if (op.type == TraceOpType::kEventSynchronize) {
            if (op.event.version == 0) {
              worker.host_busy_us += op.host_delay_us;
              worker.host_time = issue;
              ++worker.next_op;
              continue;
            }
            worker.block = HostBlock::kEvent;
            worker.block_key = EventKey(op.event.event_id, op.event.version);
          } else if (op.type == TraceOpType::kStreamSynchronize) {
            worker.block = HostBlock::kStream;
            worker.block_key = op.stream;
          } else {
            worker.block = HostBlock::kDevice;
            worker.block_key = 0;
          }
          double ready_at = 0.0;
          if (host_dependency_ready(worker, &ready_at)) {
            worker.host_busy_us += op.host_delay_us;
            worker.host_time = std::max(issue, ready_at);
            worker.block = HostBlock::kNone;
            ++worker.next_op;
            continue;
          }
          // Host stalls; an OpComplete / event record will wake it.
          return;
        }
      }
    }
    worker.finish_us = std::max(worker.finish_us, std::max(worker.host_time, time));
  };

  // ---- Main loop (Algorithm 1) ----------------------------------------------

  for (size_t w = 0; w < worker_count; ++w) {
    push_event(0.0, SimEventType::kHostAdvance, static_cast<int>(w), 0);
  }

  while (!event_queue.empty()) {
    const SimEvent event = event_queue.Pop();
    WorkerState& worker = workers[static_cast<size_t>(event.worker)];
    ++worker.events;
    switch (event.type) {
      case SimEventType::kHostAdvance:
        advance_host(event.worker, event.time);
        break;
      case SimEventType::kOpComplete: {
        StreamState& stream = worker.streams[event.stream];
        CHECK(stream.busy);
        const TraceOp& op = worker.trace->ops[stream.executing_op];
        stream.busy = false;
        stream.ready_time = event.time;
        worker.finish_us = std::max(worker.finish_us, event.time);
        if (op.type == TraceOpType::kKernelLaunch) {
          compute_end(worker, event.time);
        } else if (op.type == TraceOpType::kCollective) {
          comm_end(worker, event.time);
        }
        advance_stream(event.worker, event.stream, event.time);
        // The completion may unblock the host (stream/device/event sync).
        if (worker.block != HostBlock::kNone) {
          double ready_at = 0.0;
          if (host_dependency_ready(worker, &ready_at)) {
            push_event(event.time, SimEventType::kHostAdvance, event.worker, 0);
          }
        }
        break;
      }
    }
  }

  // ---- Termination checks (worker order: the first stuck worker, else a
  // rendezvous left pending, else the first stalled stream) ----------------

  for (const WorkerState& worker : workers) {
    const WorkerTrace& trace = *worker.trace;
    if (worker.next_op < trace.ops.size()) {
      const TraceOp& op = trace.ops[worker.next_op];
      return Status::Internal(StrFormat(
          "deadlock: worker rank %d stuck at op %zu/%zu (%s%s)", trace.rank, worker.next_op,
          trace.ops.size(), TraceOpTypeName(op.type),
          op.type == TraceOpType::kCollective
              ? StrFormat(", comm %llu seq %u",
                          static_cast<unsigned long long>(op.collective.comm_uid),
                          op.collective.seq)
                    .c_str()
              : ""));
    }
  }
  if (!collective_waits.empty()) {
    return Status::Internal("deadlock: collectives left waiting after event queue drained");
  }
  for (const WorkerState& worker : workers) {
    // The stalled stream of smallest id (deterministic across runs, unlike
    // hash-map iteration order).
    const StreamState* stalled = nullptr;
    uint64_t stalled_id = 0;
    for (const auto& [stream_id, stream] : worker.streams) {
      if ((stream.busy || stream.blocked_on_event || !stream.queue.empty()) &&
          (stalled == nullptr || stream_id < stalled_id)) {
        stalled = &stream;
        stalled_id = stream_id;
      }
    }
    if (stalled != nullptr) {
      return Status::Internal(StrFormat(
          "deadlock: rank %d stream %llu stalled (%s) with %zu queued ops", worker.trace->rank,
          static_cast<unsigned long long>(stalled_id),
          stalled->blocked_on_event ? "waiting on event" : "busy", stalled->queue.size()));
    }
  }

  std::vector<WorkerSimMetrics> metrics(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    const WorkerState& worker = workers[w];
    metrics[w].finish_us = worker.finish_us;
    metrics[w].host_busy_us = worker.host_busy_us;
    metrics[w].compute_busy_us = worker.compute_busy_us;
    metrics[w].comm_busy_us = worker.comm_busy_us;
    metrics[w].exposed_comm_us = worker.exposed_comm_us;
    metrics[w].events = worker.events;
  }
  return metrics;
}

}  // namespace

Simulator::Simulator(const JobTrace& job, const ClusterSpec& cluster, SimOptions options)
    : job_(job), cluster_(cluster), options_(options) {
  dispatch_latency_us_ =
      options_.dispatch_latency_us.value_or(cluster_.gpu.kernel_dispatch_latency_us);
  CHECK_GE(dispatch_latency_us_, 0.0) << "dispatch latency must be non-negative";
}

Result<SimReport> Simulator::Run() {
  const size_t worker_count = job_.workers.size();
  if (worker_count == 0) {
    return Status::InvalidArgument("empty job trace");
  }

  // Span-indexed rank -> worker map built straight from the compressed fold
  // sets, so a 131k-rank world costs a handful of span entries rather than a
  // dense O(world) table. A folded worker joins once for all of its ranks
  // (§4.2 dedup: redundant GPUs are neither emulated nor simulated).
  const RankLookup rank_to_worker(job_.folded_ranks);

  // One walk over the ops numbers the referenced communicators by first use
  // (membership alone synchronizes no one, so unreferenced ones are skipped)
  // and, when a cache is attached, hashes the job's canonical fingerprint:
  // every op field the replay reads, with communicator uids renumbered by
  // first use, so equal fingerprints mean identical replays.
  const bool fingerprint = options_.cache != nullptr;
  uint64_t hash = FnvMix(kFnvOffsetBasis, worker_count);
  std::unordered_map<uint64_t, uint64_t> comm_index;  // uid -> first-use index
  std::vector<uint64_t> comm_order;                   // uids in first-use order
  for (const WorkerTrace& trace : job_.workers) {
    if (fingerprint) {
      hash = FnvMix(hash, trace.ops.size());
    }
    for (const TraceOp& op : trace.ops) {
      uint64_t token = 0;
      if (op.type == TraceOpType::kCollective) {
        auto [it, inserted] = comm_index.try_emplace(op.collective.comm_uid, comm_order.size());
        if (inserted) {
          comm_order.push_back(op.collective.comm_uid);
        }
        token = it->second;
      }
      if (fingerprint) {
        hash = FnvMix(hash, op.AnnotatedSignature(token));
      }
    }
  }

  // Expected joiners per referenced communicator: its distinct member
  // workers (stamp-deduplicated, one epoch per communicator). The fingerprint
  // adds each communicator's joiners as sorted worker indices.
  std::unordered_map<uint64_t, int> expected_joins;
  expected_joins.reserve(comm_order.size());
  std::vector<size_t> stamp(worker_count, comm_order.size());
  std::vector<int> joiners;
  for (size_t local = 0; local < comm_order.size(); ++local) {
    const uint64_t uid = comm_order[local];
    joiners.clear();
    for (int member : job_.comm(uid).members) {
      const int worker = rank_to_worker.Find(member);
      if (worker >= 0 && stamp[static_cast<size_t>(worker)] != local) {
        stamp[static_cast<size_t>(worker)] = local;
        joiners.push_back(worker);
      }
    }
    expected_joins[uid] = static_cast<int>(joiners.size());
    if (fingerprint) {
      std::sort(joiners.begin(), joiners.end());
      hash = FnvMix(hash, local);
      hash = FnvMix(hash, joiners.size());
      for (int worker : joiners) {
        hash = FnvMix(hash, static_cast<uint64_t>(worker));
      }
    }
  }

  // Cache key: the fingerprint plus every resolved knob the replay reads (the
  // cluster's only influence is the default dispatch latency, already folded
  // into the resolved value).
  const uint64_t cache_key =
      HashCombine(HashCombine(hash, std::bit_cast<uint64_t>(dispatch_latency_us_)),
                  std::bit_cast<uint64_t>(options_.compute_contention_factor));

  SimulationStats stats;
  stats.workers = worker_count;
  stats.components = 1;
  std::shared_ptr<const SimCacheEntry> result;
  if (fingerprint) {
    if (std::optional<std::shared_ptr<const SimCacheEntry>> hit =
            options_.cache->Lookup(cache_key);
        hit.has_value() && (*hit)->workers.size() == worker_count) {
      result = *std::move(hit);
      ++stats.cache_hits;
    }
  }
  if (result == nullptr) {
    ++stats.cache_misses;
    MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));
    Result<std::vector<WorkerSimMetrics>> replayed = Replay(
        job_, expected_joins, dispatch_latency_us_, options_.compute_contention_factor);
    // Checked before the publish below, so a cancelled run leaves the
    // cross-trial sim cache untouched.
    MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));
    MAYA_RETURN_IF_ERROR(replayed.status());
    auto fresh = std::make_shared<SimCacheEntry>();
    fresh->workers = *std::move(replayed);
    if (fingerprint) {
      options_.cache->Insert(cache_key, fresh);
    }
    result = std::move(fresh);
  } else {
    // A cancelled run unwinds on a cache hit too, as it would after a replay.
    MAYA_RETURN_IF_ERROR(CheckCancel(options_.cancel));
  }

  // ---- Report ---------------------------------------------------------------

  SimReport report;
  report.stats = stats;
  report.workers.reserve(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    const WorkerSimMetrics& metrics = result->workers[w];
    const WorkerTrace& trace = job_.workers[w];
    WorkerSimReport worker_report;
    worker_report.rank = trace.rank;
    worker_report.folded_multiplicity = static_cast<int>(job_.folded_ranks[w].size());
    worker_report.finish_us = metrics.finish_us;
    worker_report.host_busy_us = metrics.host_busy_us;
    worker_report.compute_busy_us = metrics.compute_busy_us;
    worker_report.comm_busy_us = metrics.comm_busy_us;
    worker_report.exposed_comm_us = metrics.exposed_comm_us;
    report.total_time_us = std::max(report.total_time_us, metrics.finish_us);
    report.comm_time_us += metrics.comm_busy_us;
    report.exposed_comm_us += metrics.exposed_comm_us;
    report.host_time_us += metrics.host_busy_us;
    report.events_processed += metrics.events;
    report.peak_memory_bytes = std::max(report.peak_memory_bytes, trace.peak_device_bytes);
    report.workers.push_back(worker_report);
  }
  const double n = static_cast<double>(worker_count);
  report.comm_time_us /= n;
  report.exposed_comm_us /= n;
  report.host_time_us /= n;
  return report;
}

}  // namespace maya

// Discrete-event simulator tests (Appendix A semantics): host dispatch,
// stream serialization, CUDA-event waitmaps with versioning, collective
// rendezvous, folded-worker lockstep, overlap accounting, contention,
// deadlock detection and the cross-trial sim cache.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/common/strings.h"
#include "src/sim/simulator.h"

namespace maya {
namespace {

// Builds a worker trace op-by-op with explicit timing fields.
class TraceBuilder {
 public:
  explicit TraceBuilder(int rank) { trace_.rank = rank; }

  TraceBuilder& Kernel(uint64_t stream, double host_delay, double duration) {
    TraceOp op;
    op.type = TraceOpType::kKernelLaunch;
    op.stream = stream;
    op.host_delay_us = host_delay;
    op.duration_us = duration;
    op.kernel = MakeElementwise(1024, DType::kBf16);
    trace_.ops.push_back(op);
    return *this;
  }

  TraceBuilder& Collective(uint64_t stream, double host_delay, double duration, uint64_t uid,
                           uint32_t seq, int nranks, int rank_in_comm,
                           CollectiveKind kind = CollectiveKind::kAllReduce) {
    TraceOp op;
    op.type = TraceOpType::kCollective;
    op.stream = stream;
    op.host_delay_us = host_delay;
    op.duration_us = duration;
    op.collective = {kind, 4096, uid, seq, nranks, rank_in_comm, -1};
    trace_.ops.push_back(op);
    comm_inits_.insert({uid, nranks, rank_in_comm});
    return *this;
  }

  TraceBuilder& Record(uint64_t stream, double host_delay, uint32_t event, uint32_t version) {
    TraceOp op;
    op.type = TraceOpType::kEventRecord;
    op.stream = stream;
    op.host_delay_us = host_delay;
    op.event = {event, version};
    trace_.ops.push_back(op);
    return *this;
  }

  TraceBuilder& WaitEvent(uint64_t stream, double host_delay, uint32_t event, uint32_t version) {
    TraceOp op;
    op.type = TraceOpType::kStreamWaitEvent;
    op.stream = stream;
    op.host_delay_us = host_delay;
    op.event = {event, version};
    trace_.ops.push_back(op);
    return *this;
  }

  TraceBuilder& HostSync(TraceOpType type, uint64_t stream, double host_delay,
                         uint32_t event = 0, uint32_t version = 0) {
    TraceOp op;
    op.type = type;
    op.stream = stream;
    op.host_delay_us = host_delay;
    op.event = {event, version};
    trace_.ops.push_back(op);
    return *this;
  }

  TraceBuilder& Malloc(double host_delay, uint64_t bytes) {
    TraceOp op;
    op.type = TraceOpType::kMalloc;
    op.host_delay_us = host_delay;
    op.memory = {bytes, 0x1};
    trace_.ops.push_back(op);
    return *this;
  }

  WorkerTrace Build() const { return trace_; }
  // Communicator evidence accumulated from Collective() calls.
  std::set<std::tuple<uint64_t, int, int>> comm_inits_;

 private:
  WorkerTrace trace_;
};

JobTrace MakeJob(std::vector<WorkerTrace> workers,
                 std::vector<std::vector<int>> folded = {},
                 std::vector<CommGroup> comms = {}) {
  JobTrace job;
  job.world_size = 0;
  for (const auto& worker : workers) {
    job.world_size = std::max(job.world_size, worker.rank + 1);
  }
  if (folded.empty()) {
    for (const auto& worker : workers) {
      folded.push_back({worker.rank});
    }
  }
  job.workers = std::move(workers);
  for (std::vector<int>& ranks : folded) {
    std::sort(ranks.begin(), ranks.end());
    RankSet set;
    for (int rank : ranks) {
      set.Add(rank);
    }
    job.folded_ranks.push_back(std::move(set));
  }
  for (auto& group : comms) {
    job.comms[group.uid] = group;
  }
  return job;
}

SimOptions NoLatency() {
  SimOptions options;
  options.dispatch_latency_us = 0.0;
  return options;
}

// Every per-worker field and every total must be EXPECT_EQ (not NEAR): a
// sim-cache hit is bit-identical to a fresh replay by construction.
void ExpectSameReport(const SimReport& expected, const SimReport& actual) {
  EXPECT_EQ(expected.total_time_us, actual.total_time_us);
  EXPECT_EQ(expected.comm_time_us, actual.comm_time_us);
  EXPECT_EQ(expected.exposed_comm_us, actual.exposed_comm_us);
  EXPECT_EQ(expected.host_time_us, actual.host_time_us);
  EXPECT_EQ(expected.peak_memory_bytes, actual.peak_memory_bytes);
  EXPECT_EQ(expected.events_processed, actual.events_processed);
  ASSERT_EQ(expected.workers.size(), actual.workers.size());
  for (size_t w = 0; w < expected.workers.size(); ++w) {
    EXPECT_EQ(expected.workers[w], actual.workers[w]) << "worker " << w;
  }
}

// Two disjoint comm islands with different timings: {0,1} on comm 100 and
// {2,3} on comm 200.
JobTrace TwoIslandJob() {
  CommGroup left{100, 2, {0, 1}};
  CommGroup right{200, 2, {2, 3}};
  return MakeJob(
      {TraceBuilder(0).Kernel(1, 1.0, 5.0).Collective(1, 0.0, 7.0, 100, 0, 2, 0).Build(),
       TraceBuilder(1).Kernel(1, 1.0, 20.0).Collective(1, 0.0, 7.0, 100, 0, 2, 1).Build(),
       TraceBuilder(2).Kernel(1, 1.0, 9.0).Collective(1, 0.0, 3.0, 200, 0, 2, 0).Build(),
       TraceBuilder(3).Kernel(1, 1.0, 31.0).Collective(1, 0.0, 3.0, 200, 0, 2, 1).Build()},
      {}, {left, right});
}

// ---- Stream serialization ------------------------------------------------------

TEST(SimulatorTest, SequentialKernelsOnOneStream) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 1.0, 10.0)
                              .Kernel(1, 1.0, 10.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // op1: issue 1, runs [1, 11); op2: issue 2, waits for stream, runs [11, 21).
  EXPECT_DOUBLE_EQ(report->total_time_us, 21.0);
  EXPECT_DOUBLE_EQ(report->workers[0].compute_busy_us, 20.0);
  EXPECT_DOUBLE_EQ(report->workers[0].host_busy_us, 2.0);
}

TEST(SimulatorTest, IndependentStreamsOverlap) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 1.0, 10.0)
                              .Kernel(2, 1.0, 10.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  // Stream 2's kernel starts at issue time 2, overlapping stream 1.
  EXPECT_DOUBLE_EQ(report->total_time_us, 12.0);
}

TEST(SimulatorTest, DispatchLatencyDelaysStart) {
  SimOptions options;
  options.dispatch_latency_us = 4.0;
  JobTrace job = MakeJob({TraceBuilder(0).Kernel(1, 1.0, 10.0).Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), options).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 15.0);  // 1 (host) + 4 (dispatch) + 10
}

TEST(SimulatorTest, HostOnlyOpsAdvanceHostClock) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Malloc(5.0, 1024)
                              .Kernel(1, 1.0, 10.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 16.0);  // 5 + 1 host, then 10 device
}

// ---- CUDA event waitmap -----------------------------------------------------------

TEST(SimulatorTest, StreamWaitEventOrdersCrossStreamWork) {
  // Stream 1: kernel [0,10) then record e1v1. Stream 2: wait(e1v1), kernel 5.
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 10.0)
                              .Record(1, 0.0, /*event=*/1, /*version=*/1)
                              .WaitEvent(2, 0.0, 1, 1)
                              .Kernel(2, 0.0, 5.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 15.0);
}

TEST(SimulatorTest, WaitOnAlreadyCompletedEventIsFree) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 2.0)
                              .Record(1, 0.0, 1, 1)
                              .Kernel(2, 10.0, 1.0)  // issued late: event long done
                              .WaitEvent(2, 0.0, 1, 1)
                              .Kernel(2, 0.0, 5.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 16.0);  // 10 + 1, then 5
}

TEST(SimulatorTest, WaitOnUnrecordedEventVersionZeroIsNoop) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .WaitEvent(1, 0.0, 7, 0)
                              .Kernel(1, 0.0, 5.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 5.0);
}

TEST(SimulatorTest, EventVersionsDisambiguateReuse) {
  // Wait on version 2 must see the *second* record, not the first.
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 3.0)
                              .Record(1, 0.0, 1, 1)
                              .Kernel(1, 0.0, 7.0)
                              .Record(1, 0.0, 1, 2)
                              .WaitEvent(2, 0.0, 1, 2)
                              .Kernel(2, 0.0, 1.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 11.0);  // 3 + 7, then 1
}

// ---- Host blocking synchronization ---------------------------------------------------

TEST(SimulatorTest, EventSynchronizeBlocksHost) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 10.0)
                              .Record(1, 0.0, 1, 1)
                              .HostSync(TraceOpType::kEventSynchronize, 0, 0.0, 1, 1)
                              .Kernel(2, 1.0, 2.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 13.0);  // host resumes at 10, +1 +2
}

TEST(SimulatorTest, StreamSynchronizeDrainsOneStream) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 10.0)
                              .Kernel(2, 0.0, 3.0)
                              .HostSync(TraceOpType::kStreamSynchronize, 2, 0.0)
                              .Kernel(3, 0.0, 1.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  // Host resumes when stream 2 drains (t=3); stream 1 still runs to 10.
  EXPECT_DOUBLE_EQ(report->total_time_us, 10.0);
  EXPECT_DOUBLE_EQ(report->workers[0].finish_us, 10.0);
}

TEST(SimulatorTest, DeviceSynchronizeDrainsAllStreams) {
  JobTrace job = MakeJob({TraceBuilder(0)
                              .Kernel(1, 0.0, 10.0)
                              .Kernel(2, 0.0, 3.0)
                              .HostSync(TraceOpType::kDeviceSynchronize, 0, 0.0)
                              .Kernel(3, 0.0, 1.0)
                              .Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 11.0);  // resume at 10, + 1
}

// ---- Collectives ------------------------------------------------------------------------

TEST(SimulatorTest, CollectiveWaitsForLastParticipant) {
  CommGroup group{77, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0).Kernel(1, 0.0, 5.0).Collective(1, 0.0, 7.0, 77, 0, 2, 0).Build(),
       TraceBuilder(1).Kernel(1, 0.0, 20.0).Collective(1, 0.0, 7.0, 77, 0, 2, 1).Build()},
      {}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Fires when rank 1 joins at 20; all complete at 27 (lockstep release).
  EXPECT_DOUBLE_EQ(report->total_time_us, 27.0);
  EXPECT_DOUBLE_EQ(report->workers[0].comm_busy_us, 22.0);  // stalled from 5 to 27
  EXPECT_DOUBLE_EQ(report->workers[1].comm_busy_us, 7.0);
}

TEST(SimulatorTest, CollectiveSequenceNumbersPairInOrder) {
  // Two consecutive collectives on the same comm must pair 0-0 and 1-1.
  CommGroup group{5, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Collective(1, 1.0, 10.0, 5, 0, 2, 0)
           .Collective(1, 1.0, 10.0, 5, 1, 2, 0)
           .Build(),
       TraceBuilder(1)
           .Collective(1, 2.0, 10.0, 5, 0, 2, 1)
           .Collective(1, 2.0, 10.0, 5, 1, 2, 1)
           .Build()},
      {}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  // First joins at 1 and 2 -> fires 2, done 12. Second joins at 12 -> done 22.
  EXPECT_DOUBLE_EQ(report->total_time_us, 22.0);
}

TEST(SimulatorTest, FoldedWorkersJoinOnceForWholeGroup) {
  // One simulated worker represents both ranks of the communicator: the
  // collective fires on its single join (§4.2 dedup).
  CommGroup group{9, 2, {0, 1}};
  JobTrace job = MakeJob({TraceBuilder(0).Collective(1, 1.0, 6.0, 9, 0, 2, 0).Build()},
                         {{0, 1}}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->total_time_us, 7.0);
  EXPECT_EQ(report->workers[0].folded_multiplicity, 2);
}

TEST(SimulatorTest, CollectiveOverlapsIndependentComputeStream) {
  CommGroup group{3, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Collective(2, 0.0, 50.0, 3, 0, 2, 0)  // comm stream
           .Kernel(1, 1.0, 30.0)                  // compute proceeds concurrently
           .Build(),
       TraceBuilder(1).Collective(2, 0.0, 50.0, 3, 0, 2, 1).Build()},
      {}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 50.0);
  // Exposed communication is reduced by the overlapped compute window.
  EXPECT_NEAR(report->workers[0].exposed_comm_us, 20.0, 1e-9);
}

TEST(SimulatorTest, MismatchedCollectiveIsDeadlockNotHang) {
  CommGroup group{4, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0).Collective(1, 0.0, 5.0, 4, 0, 2, 0).Build(),
       TraceBuilder(1).Kernel(1, 0.0, 5.0).Build()},  // rank 1 never joins
      {}, {group});
  // Rank 1's trace has no comm init for uid 4; provide evidence anyway.
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("deadlock"), std::string::npos);
}

// ---- Contention (ground-truth mode) -----------------------------------------------------

TEST(SimulatorTest, ContentionStretchesOverlappedCompute) {
  CommGroup group{6, 2, {0, 1}};
  SimOptions options = NoLatency();
  options.compute_contention_factor = 2.0;
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Collective(2, 0.0, 100.0, 6, 0, 2, 0)
           .Kernel(1, 1.0, 60.0)  // starts inside the collective window
           .Build(),
       TraceBuilder(1).Collective(2, 0.0, 100.0, 6, 0, 2, 1).Build()},
      {}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), options).Run();
  ASSERT_TRUE(report.ok());
  // The kernel is stretched to 120us and now dominates the makespan.
  EXPECT_DOUBLE_EQ(report->total_time_us, 121.0);
}

TEST(SimulatorTest, NoContentionWithoutActiveCollective) {
  SimOptions options = NoLatency();
  options.compute_contention_factor = 2.0;
  JobTrace job = MakeJob({TraceBuilder(0).Kernel(1, 0.0, 60.0).Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), options).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->total_time_us, 60.0);
}

// ---- Pipeline bubble emergence ------------------------------------------------------------

TEST(SimulatorTest, TwoStagePipelineShowsBubble) {
  // Stage 0 sends after compute; stage 1 receives, computes. The stage-1
  // makespan includes the stage-0 fill time — a pipeline bubble emerging
  // purely from p2p rendezvous, with no explicit bubble modeling.
  CommGroup fwd{11, 2, {0, 1}};
  TraceBuilder stage0(0);
  TraceBuilder stage1(1);
  for (uint32_t mb = 0; mb < 3; ++mb) {
    stage0.Kernel(1, 0.0, 10.0).Collective(1, 0.0, 1.0, 11, mb, 2, 0, CollectiveKind::kSend);
    stage1.Collective(1, 0.0, 1.0, 11, mb, 2, 1, CollectiveKind::kRecv).Kernel(1, 0.0, 10.0);
  }
  JobTrace job = MakeJob({stage0.Build(), stage1.Build()}, {}, {fwd});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Stage 0: mb at [0,10),[11,21),[22,32) + sends. Stage 1 finishes its last
  // compute 10us after receiving the last send.
  EXPECT_DOUBLE_EQ(report->total_time_us, 43.0);
}

// ---- One event heap / sim cache ----------------------------------------------------

TEST(SimulatorTest, DisjointCommIslandsReplayOnOneHeap) {
  // Islands that share no communicator still replay on the one heap, each at
  // its own pace: {0,1} releases at max(6, 21) + 7, {2,3} at max(10, 32) + 3.
  JobTrace job = TwoIslandJob();
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stats.workers, 4u);
  EXPECT_EQ(report->stats.components, 1u);
  EXPECT_EQ(report->stats.cache_misses, 1u);
  EXPECT_EQ(report->total_time_us, 35.0);
  const double finish[] = {28.0, 28.0, 35.0, 35.0};
  const double compute[] = {5.0, 20.0, 9.0, 31.0};
  const double comm[] = {22.0, 7.0, 25.0, 3.0};
  ASSERT_EQ(report->workers.size(), 4u);
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(report->workers[w].finish_us, finish[w]) << "worker " << w;
    EXPECT_EQ(report->workers[w].compute_busy_us, compute[w]) << "worker " << w;
    EXPECT_EQ(report->workers[w].comm_busy_us, comm[w]) << "worker " << w;
    EXPECT_EQ(report->workers[w].exposed_comm_us, comm[w]) << "worker " << w;
  }
}

TEST(SimulatorTest, P2pRingReplaysEveryEndpoint) {
  // Both ring endpoints record identical op sequences (send then recv on the
  // same link); each is replayed, so every rendezvous has its two joiners:
  // the sends release at 1 + 5, the recvs at 6 + 5.
  CommGroup ring{7, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Collective(1, 1.0, 5.0, 7, 0, 2, 0, CollectiveKind::kSend)
           .Collective(1, 0.0, 5.0, 7, 1, 2, 0, CollectiveKind::kRecv)
           .Build(),
       TraceBuilder(1)
           .Collective(1, 1.0, 5.0, 7, 0, 2, 1, CollectiveKind::kSend)
           .Collective(1, 0.0, 5.0, 7, 1, 2, 1, CollectiveKind::kRecv)
           .Build()},
      {}, {ring});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_time_us, 11.0);
  ASSERT_EQ(report->workers.size(), 2u);
  for (const WorkerSimReport& worker : report->workers) {
    EXPECT_EQ(worker.finish_us, 11.0);
    EXPECT_EQ(worker.comm_busy_us, 10.0);
  }
}

TEST(SimulatorTest, SimCacheReplaysBitIdentical) {
  JobTrace job = TwoIslandJob();
  Result<SimReport> uncached = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(uncached.ok());

  SimulationCache cache;
  SimOptions cached = NoLatency();
  cached.cache = &cache;
  Result<SimReport> cold = Simulator(job, H100Cluster(8), cached).Run();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.cache_hits, 0u);
  EXPECT_EQ(cold->stats.cache_misses, 1u);
  ExpectSameReport(*uncached, *cold);

  Result<SimReport> warm = Simulator(job, H100Cluster(8), cached).Run();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.cache_hits, 1u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  ExpectSameReport(*uncached, *warm);
}

TEST(SimulatorTest, SimCacheKeyedBySimOptions) {
  // The same annotated trace under different resolved options must not share
  // cache entries.
  JobTrace job = TwoIslandJob();
  SimulationCache cache;
  SimOptions no_latency = NoLatency();
  no_latency.cache = &cache;
  Result<SimReport> fast = Simulator(job, H100Cluster(8), no_latency).Run();
  ASSERT_TRUE(fast.ok());

  SimOptions with_latency = no_latency;
  with_latency.dispatch_latency_us = 4.0;
  Result<SimReport> slow = Simulator(job, H100Cluster(8), with_latency).Run();
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->stats.cache_hits, 0u);  // different key despite same trace
  EXPECT_GT(slow->total_time_us, fast->total_time_us);
}

TEST(SimulatorTest, SimCacheKeyIsPinned) {
  // Bundles persist sim-cache entries under this key (sim_cache.json), so a
  // fingerprint change would orphan every persisted entry. The job exercises
  // first-use comm renumbering (rank 1 uses comm 200 before comm 100) and a
  // folded worker (rank 1 stands for ranks 1 and 3, joining comm 100 once).
  CommGroup all{100, 4, {0, 1, 2, 3}};
  CommGroup pair{200, 2, {1, 2}};
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Kernel(1, 1.0, 5.0)
           .Collective(1, 0.0, 7.0, 100, 0, 4, 0)
           .Record(1, 0.0, 1, 1)
           .Build(),
       TraceBuilder(1)
           .Kernel(1, 1.0, 9.0)
           .Collective(1, 0.0, 3.0, 200, 0, 2, 0)
           .Collective(1, 0.0, 7.0, 100, 0, 4, 1)
           .Build(),
       TraceBuilder(2)
           .Collective(2, 0.5, 3.0, 200, 0, 2, 1)
           .Kernel(1, 1.0, 4.0)
           .Collective(1, 0.0, 7.0, 100, 0, 4, 2)
           .Build()},
      {{0}, {1, 3}, {2}}, {all, pair});
  job.world_size = 4;
  SimulationCache cache;
  SimOptions options = NoLatency();
  options.cache = &cache;
  Result<SimReport> report = Simulator(job, H100Cluster(8), options).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // comm 200 releases at 10 + 3; comm 100's last joiner (rank 1) arrives at 13.
  EXPECT_EQ(report->total_time_us, 20.0);
  const auto entries = cache.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(entries[0].first)),
            "30f6eeac9b606bf8");
}

TEST(SimulatorTest, StuckWorkerDiagnostic) {
  // Mismatched collective (rank 1 never joins): the deadlock diagnostic must
  // fire and name the stuck rank and the blocking host call.
  CommGroup group{4, 2, {0, 1}};
  JobTrace job = MakeJob(
      {TraceBuilder(0)
           .Collective(1, 0.0, 5.0, 4, 0, 2, 0)
           .HostSync(TraceOpType::kDeviceSynchronize, 0, 0.0)
           .Build(),
       TraceBuilder(1).Kernel(1, 0.0, 5.0).Build()},
      {}, {group});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("deadlock"), std::string::npos);
  EXPECT_NE(report.status().message().find("rank 0"), std::string::npos);
  EXPECT_NE(report.status().message().find("cudaDeviceSynchronize"), std::string::npos);
  // Without the host block the same mismatch drains the event queue with the
  // rendezvous still pending — the collective-waits diagnostic.
  JobTrace async_job = MakeJob(
      {TraceBuilder(0).Collective(1, 0.0, 5.0, 4, 0, 2, 0).Build(),
       TraceBuilder(1).Kernel(1, 0.0, 5.0).Build()},
      {}, {group});
  Result<SimReport> async_report = Simulator(async_job, H100Cluster(8), NoLatency()).Run();
  ASSERT_FALSE(async_report.ok());
  EXPECT_NE(async_report.status().message().find("collectives left waiting"), std::string::npos);
  // A stream waiting on an event that is never recorded, with no host sync:
  // the host finishes, and the stalled-stream diagnostic names the stream.
  JobTrace stalled_job =
      MakeJob({TraceBuilder(0).WaitEvent(2, 0.0, 5, 1).Kernel(2, 0.0, 3.0).Build()});
  Result<SimReport> stalled = Simulator(stalled_job, H100Cluster(8), NoLatency()).Run();
  ASSERT_FALSE(stalled.ok());
  EXPECT_NE(stalled.status().message().find(
                "rank 0 stream 2 stalled (waiting on event) with 2 queued ops"),
            std::string::npos)
      << stalled.status().ToString();
}

TEST(SimulatorTest, NegativeDispatchLatencyRejectedAtConstruction) {
  JobTrace job = MakeJob({TraceBuilder(0).Kernel(1, 0.0, 1.0).Build()});
  SimOptions options;
  options.dispatch_latency_us = -1.0;
  EXPECT_DEATH_IF_SUPPORTED(Simulator(job, H100Cluster(8), options),
                            "dispatch latency must be non-negative");
}

// ---- Misc ------------------------------------------------------------------------------------

TEST(SimulatorTest, EmptyJobRejected) {
  JobTrace job;
  Result<SimReport> report = Simulator(job, H100Cluster(8)).Run();
  EXPECT_FALSE(report.ok());
}

TEST(SimulatorTest, PeakMemoryTakenFromTraces) {
  WorkerTrace worker = TraceBuilder(0).Kernel(1, 0.0, 1.0).Build();
  worker.peak_device_bytes = 123456;
  JobTrace job = MakeJob({worker});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->peak_memory_bytes, 123456u);
}

TEST(SimulatorTest, ReportSummaryMentionsWorkers) {
  JobTrace job = MakeJob({TraceBuilder(0).Kernel(1, 0.0, 1.0).Build()});
  Result<SimReport> report = Simulator(job, H100Cluster(8), NoLatency()).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->Summary().find("1 workers"), std::string::npos);
  EXPECT_GT(report->events_processed, 0u);
}

}  // namespace
}  // namespace maya

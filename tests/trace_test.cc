// Tests for the trace model, collator, worker deduplication and JSON
// serialization round-trips (§4.2).
#include <gtest/gtest.h>

#include "src/trace/collator.h"
#include "src/trace/serialization.h"
#include "src/trace/trace.h"

namespace maya {
namespace {

TraceOp Kernel(uint64_t stream, int64_t m = 64) {
  TraceOp op;
  op.type = TraceOpType::kKernelLaunch;
  op.stream = stream;
  op.kernel = MakeGemm(m, 64, 64, DType::kBf16);
  op.host_delay_us = 3.0;
  return op;
}

TraceOp Collective(uint64_t uid, uint32_t seq, int nranks, int rank_in_comm,
                   CollectiveKind kind = CollectiveKind::kAllReduce, int peer = -1) {
  TraceOp op;
  op.type = TraceOpType::kCollective;
  op.stream = 1;
  op.collective.kind = kind;
  op.collective.bytes = 4096;
  op.collective.comm_uid = uid;
  op.collective.seq = seq;
  op.collective.nranks = nranks;
  op.collective.rank_in_comm = rank_in_comm;
  op.collective.peer = peer;
  return op;
}

WorkerTrace MakeWorker(int rank, std::vector<TraceOp> ops,
                       std::vector<CommInitRecord> inits = {}) {
  WorkerTrace worker;
  worker.rank = rank;
  worker.ops = std::move(ops);
  worker.comm_inits = std::move(inits);
  return worker;
}

// ---- Structural signatures and fingerprints --------------------------------------

TEST(TraceOpTest, SignatureIgnoresCommUidAndTimes) {
  TraceOp a = Collective(111, 5, 4, 2);
  TraceOp b = Collective(999, 5, 4, 2);  // different uid: data-parallel twin
  b.host_delay_us = 42.0;
  b.duration_us = 7.0;
  EXPECT_EQ(a.StructuralSignature(), b.StructuralSignature());
}

TEST(TraceOpTest, SignatureSeesShapeDifferences) {
  EXPECT_NE(Kernel(0, 64).StructuralSignature(), Kernel(0, 128).StructuralSignature());
  EXPECT_NE(Kernel(0).StructuralSignature(), Kernel(1).StructuralSignature());
  // Symmetric collectives: the rank-in-group is non-structural...
  EXPECT_EQ(Collective(1, 0, 4, 0).StructuralSignature(),
            Collective(1, 0, 4, 1).StructuralSignature());
  // ...but group size is, and for p2p transfers the role is too.
  EXPECT_NE(Collective(1, 0, 4, 0).StructuralSignature(),
            Collective(1, 0, 8, 0).StructuralSignature());
  EXPECT_NE(Collective(1, 0, 2, 0, CollectiveKind::kSend, 1).StructuralSignature(),
            Collective(1, 0, 2, 1, CollectiveKind::kSend, 0).StructuralSignature());
}

TEST(WorkerTraceTest, FingerprintOrderSensitive) {
  WorkerTrace ab = MakeWorker(0, {Kernel(0, 64), Kernel(0, 128)});
  WorkerTrace ba = MakeWorker(1, {Kernel(0, 128), Kernel(0, 64)});
  EXPECT_NE(ab.Fingerprint(), ba.Fingerprint());
}

TEST(WorkerTraceTest, TwinsShareFingerprint) {
  WorkerTrace a = MakeWorker(0, {Kernel(0), Collective(10, 0, 2, 0)});
  WorkerTrace b = MakeWorker(5, {Kernel(0), Collective(20, 0, 2, 0)});
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(WorkerTraceTest, CountsAndSummary) {
  WorkerTrace worker = MakeWorker(3, {Kernel(0), Kernel(0), Collective(1, 0, 2, 0)});
  EXPECT_EQ(worker.KernelLaunchCount(), 2u);
  EXPECT_EQ(worker.CollectiveCount(), 1u);
  EXPECT_DOUBLE_EQ(worker.TotalHostDelayUs(), 6.0);
  EXPECT_NE(worker.Summary().find("rank 3"), std::string::npos);
}

// ---- Collation -------------------------------------------------------------------

TEST(CollatorTest, BuildsCommMembershipFromEvidence) {
  // Two workers in one 2-rank communicator.
  WorkerTrace w0 = MakeWorker(0, {Collective(7, 0, 2, 0)}, {{7, 2, 0}});
  WorkerTrace w1 = MakeWorker(1, {Kernel(0), Collective(7, 0, 2, 1)}, {{7, 2, 1}});
  TraceCollator collator(CollationOptions{/*deduplicate=*/false});
  Result<JobTrace> job = collator.Collate({w0, w1});
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->world_size, 2);
  ASSERT_EQ(job->workers.size(), 2u);
  const CommGroup& group = job->comm(7);
  EXPECT_EQ(group.nranks, 2);
  EXPECT_EQ(group.members, (std::vector<int>{0, 1}));
}

TEST(CollatorTest, RejectsInconsistentCommSizes) {
  WorkerTrace w0 = MakeWorker(0, {}, {{7, 2, 0}});
  WorkerTrace w1 = MakeWorker(1, {}, {{7, 4, 1}});
  TraceCollator collator;
  EXPECT_FALSE(collator.Collate({w0, w1}).ok());
}

TEST(CollatorTest, RejectsDuplicateRankClaims) {
  WorkerTrace w0 = MakeWorker(0, {}, {{7, 2, 0}});
  WorkerTrace w1 = MakeWorker(1, {}, {{7, 2, 0}});
  TraceCollator collator;
  EXPECT_FALSE(collator.Collate({w0, w1}).ok());
}

TEST(CollatorTest, RejectsIncompleteMembership) {
  WorkerTrace w0 = MakeWorker(0, {}, {{7, 2, 0}});  // rank_in_comm 1 never claimed
  TraceCollator collator;
  EXPECT_FALSE(collator.Collate({w0}).ok());
}

TEST(CollatorTest, RejectsEmptyInput) {
  TraceCollator collator;
  EXPECT_FALSE(collator.Collate({}).ok());
}

TEST(CollatorTest, DeduplicationFoldsTwins) {
  // 4 twins across 2 communicators of identical shape: all perform the same
  // symmetric work, so dedup folds them onto one representative.
  std::vector<WorkerTrace> workers;
  for (int rank = 0; rank < 4; ++rank) {
    const uint64_t uid = 100 + static_cast<uint64_t>(rank % 2);
    workers.push_back(MakeWorker(
        rank, {Kernel(0), Collective(uid, 0, 2, rank / 2)}, {{uid, 2, rank / 2}}));
  }
  TraceCollator collator(CollationOptions{/*deduplicate=*/true});
  Result<JobTrace> job = collator.Collate(workers);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->workers.size(), 1u);
  EXPECT_EQ(collator.stats().duplicates_folded, 3);
  EXPECT_EQ(job->folded_ranks[0], (RankSet{0, 1, 2, 3}));
}

TEST(CollatorTest, ParallelFingerprintPassBitIdentical) {
  // The fingerprint pass fans out on a borrowed pool (the pipeline's shared
  // ExecutionContext in production); grouping consumes the fingerprints in
  // the original sequential worker order, so the collated trace must be
  // bit-identical to the sequential pass — workers, fold sets and stats.
  const auto make_workers = [] {
    std::vector<WorkerTrace> workers;
    for (int rank = 0; rank < 16; ++rank) {
      const uint64_t uid = 100 + static_cast<uint64_t>(rank % 4);
      std::vector<TraceOp> ops;
      for (int i = 0; i < 8; ++i) {
        ops.push_back(Kernel(0, 64 << (i % 3)));
      }
      ops.push_back(Collective(uid, 0, 4, rank / 4));
      workers.push_back(MakeWorker(rank, std::move(ops), {{uid, 4, rank / 4}}));
    }
    return workers;
  };
  ThreadPool pool(4);
  CollationOptions parallel_options;
  parallel_options.pool = &pool;
  parallel_options.parallel_fingerprint_threshold = 1;
  TraceCollator parallel(parallel_options);
  TraceCollator sequential;
  Result<JobTrace> a = parallel.Collate(make_workers());
  Result<JobTrace> b = sequential.Collate(make_workers());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->workers.size(), b->workers.size());
  for (size_t i = 0; i < a->workers.size(); ++i) {
    EXPECT_TRUE(a->workers[i] == b->workers[i]) << "worker " << i;
  }
  EXPECT_EQ(a->folded_ranks, b->folded_ranks);
  EXPECT_EQ(a->world_size, b->world_size);
  EXPECT_EQ(parallel.stats().unique_workers, sequential.stats().unique_workers);
  EXPECT_EQ(parallel.stats().duplicates_folded, sequential.stats().duplicates_folded);
}

TEST(CollatorTest, DedupOffKeepsAllWorkers) {
  std::vector<WorkerTrace> workers;
  for (int rank = 0; rank < 4; ++rank) {
    workers.push_back(MakeWorker(rank, {Kernel(0)}));
  }
  TraceCollator collator(CollationOptions{/*deduplicate=*/false});
  Result<JobTrace> job = collator.Collate(workers);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->workers.size(), 4u);
  EXPECT_EQ(collator.stats().duplicates_folded, 0);
}

TEST(CollatorTest, P2pEndpointsNeverFoldTogether) {
  // Both endpoints of a send/recv link can have identical structure (e.g.
  // middle pipeline stages whose interleaved schedules saturate) — folding
  // them would self-deadlock. The collator splits such classes along the
  // p2p chain instead.
  WorkerTrace w0 =
      MakeWorker(0, {Collective(9, 0, 2, 0, CollectiveKind::kSend, 1)}, {{9, 2, 0}});
  WorkerTrace w1 =
      MakeWorker(1, {Collective(9, 0, 2, 0, CollectiveKind::kSend, 0)}, {{9, 2, 1}});
  TraceCollator collator(CollationOptions{/*deduplicate=*/true});
  Result<JobTrace> job = collator.Collate({w0, w1});
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->workers.size(), 2u);  // no folding across the link
  EXPECT_EQ(collator.stats().duplicates_folded, 0);
}

TEST(CollatorTest, IsomorphicChainsFoldPositionally) {
  // Two disjoint 2-stage chains (data-parallel pipeline replicas): stage i
  // of chain B folds onto stage i of chain A, preserving both links.
  auto chain_worker = [](int rank, uint64_t link_uid, int role) {
    return MakeWorker(rank,
                      {Collective(link_uid, 0, 2, role,
                                  role == 0 ? CollectiveKind::kSend : CollectiveKind::kRecv)},
                      {{link_uid, 2, role}});
  };
  // Chain A: ranks 0 (send on 100) and 1 (recv on 100); chain B: 2/3 on 200.
  TraceCollator collator(CollationOptions{/*deduplicate=*/true});
  Result<JobTrace> job = collator.Collate({chain_worker(0, 100, 0), chain_worker(1, 100, 1),
                                           chain_worker(2, 200, 0), chain_worker(3, 200, 1)});
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->workers.size(), 2u);
  EXPECT_EQ(job->folded_ranks[0], (RankSet{0, 2}));
  EXPECT_EQ(job->folded_ranks[1], (RankSet{1, 3}));
}

TEST(CollatorTest, JobTraceSummaryCountsOps) {
  WorkerTrace w0 = MakeWorker(0, {Kernel(0), Kernel(0)});
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate({w0});
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->TotalOps(), 2u);
  EXPECT_NE(job->Summary().find("1 unique workers"), std::string::npos);
}

// ---- Serialization ----------------------------------------------------------------

TEST(SerializationTest, WorkerTraceRoundTrip) {
  WorkerTrace worker = MakeWorker(
      2,
      {Kernel(0, 128), Collective(55, 3, 4, 1, CollectiveKind::kReduceScatter)},
      {{55, 4, 1}});
  worker.ops[0].duration_us = 12.5;
  TraceOp event_op;
  event_op.type = TraceOpType::kEventRecord;
  event_op.stream = 2;
  event_op.event = {7, 3};
  worker.ops.push_back(event_op);
  TraceOp malloc_op;
  malloc_op.type = TraceOpType::kMalloc;
  malloc_op.memory = {4096, 0xabc};
  worker.ops.push_back(malloc_op);
  TraceOp sync_op;
  sync_op.type = TraceOpType::kDeviceSynchronize;
  worker.ops.push_back(sync_op);
  worker.peak_device_bytes = 999;

  const std::string json = SerializeWorkerTrace(worker);
  Result<WorkerTrace> parsed = ParseWorkerTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rank, 2);
  EXPECT_EQ(parsed->peak_device_bytes, 999u);
  ASSERT_EQ(parsed->ops.size(), worker.ops.size());
  EXPECT_EQ(parsed->ops[0].kernel.params[0], 128);
  EXPECT_DOUBLE_EQ(parsed->ops[0].duration_us, 12.5);
  EXPECT_EQ(parsed->ops[1].collective.kind, CollectiveKind::kReduceScatter);
  EXPECT_EQ(parsed->ops[1].collective.comm_uid, 55u);
  EXPECT_EQ(parsed->ops[2].event.event_id, 7u);
  EXPECT_EQ(parsed->ops[3].memory.bytes, 4096u);
  ASSERT_EQ(parsed->comm_inits.size(), 1u);
  EXPECT_EQ(parsed->comm_inits[0].rank_in_comm, 1);
  // Structural identity is preserved exactly.
  EXPECT_EQ(parsed->Fingerprint(), worker.Fingerprint());
}

TEST(SerializationTest, JobTraceSerializesCommsAndFolding) {
  WorkerTrace w0 = MakeWorker(0, {Collective(7, 0, 2, 0)}, {{7, 2, 0}});
  WorkerTrace w1 = MakeWorker(1, {Collective(7, 0, 2, 1)}, {{7, 2, 1}});
  TraceCollator collator;
  Result<JobTrace> job = collator.Collate({w0, w1});
  ASSERT_TRUE(job.ok());
  const std::string json = SerializeJobTrace(*job);
  EXPECT_NE(json.find("\"world_size\":2"), std::string::npos);
  EXPECT_NE(json.find("\"comms\""), std::string::npos);
  EXPECT_NE(json.find("\"folded_spans\""), std::string::npos);
}

TEST(SerializationTest, ParseRejectsMalformedTrace) {
  EXPECT_FALSE(ParseWorkerTrace("not json").ok());
  EXPECT_FALSE(ParseWorkerTrace(R"({"rank": 0})").ok());  // incomplete — CHECKs are avoided
}

TEST(SerializationTest, JobTraceStrictRoundTrip) {
  // Collate a small job with folding, multiple op types and annotated
  // durations, then require serialize(parse(serialize(job))) to be the exact
  // same bytes — the fixed-point property the service relies on for
  // pre-collated trace payloads.
  std::vector<WorkerTrace> workers;
  for (int rank = 0; rank < 4; ++rank) {
    const uint64_t uid = 100 + static_cast<uint64_t>(rank % 2);
    WorkerTrace worker = MakeWorker(
        rank, {Kernel(0, 64 + 64 * (rank % 2)), Collective(uid, 0, 2, rank / 2)},
        {{uid, 2, rank / 2}});
    worker.ops[0].duration_us = 3.25 + rank;
    worker.peak_device_bytes = 1000u + static_cast<uint64_t>(rank);
    workers.push_back(std::move(worker));
  }
  TraceCollator collator(CollationOptions{/*deduplicate=*/true});
  Result<JobTrace> job = collator.Collate(workers);
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  const std::string json = SerializeJobTrace(*job);
  Result<JobTrace> parsed = ParseJobTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->world_size, job->world_size);
  EXPECT_EQ(parsed->workers.size(), job->workers.size());
  EXPECT_EQ(parsed->folded_ranks, job->folded_ranks);
  ASSERT_EQ(parsed->comms.size(), job->comms.size());
  for (const auto& [uid, group] : job->comms) {
    ASSERT_TRUE(parsed->comms.count(uid) > 0);
    EXPECT_EQ(parsed->comm(uid).members, group.members);
  }
  for (size_t i = 0; i < job->workers.size(); ++i) {
    EXPECT_EQ(parsed->workers[i].Fingerprint(), job->workers[i].Fingerprint());
  }
  EXPECT_EQ(SerializeJobTrace(*parsed), json);
}

TEST(SerializationTest, ParseJobTraceRejectsInconsistentPayloads) {
  EXPECT_FALSE(ParseJobTrace("[]").ok());
  EXPECT_FALSE(ParseJobTrace(R"({"world_size":1})").ok());  // missing sections
  // A collective referencing an undeclared communicator is rejected rather
  // than CHECK-failing downstream in the simulator.
  WorkerTrace worker = MakeWorker(0, {Collective(42, 0, 2, 0)});
  const std::string json =
      R"({"world_size":1,"comms":[],"folded_ranks":[[0]],"workers":[)" +
      SerializeWorkerTrace(worker) + "]}";
  const Result<JobTrace> parsed = ParseJobTrace(json);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("undeclared comm"), std::string::npos);
  // Mismatched folded_ranks / workers lengths are rejected.
  const std::string mismatched =
      R"({"world_size":1,"comms":[],"folded_ranks":[[0],[1]],"workers":[)" +
      SerializeWorkerTrace(MakeWorker(0, {Kernel(0)})) + "]}";
  EXPECT_FALSE(ParseJobTrace(mismatched).ok());
  // Overlapping folded ranks (one rank claimed by two workers) would make
  // the simulator silently mis-synchronize collectives.
  const std::string overlapping =
      R"({"world_size":2,"comms":[],"folded_ranks":[[0],[0]],"workers":[)" +
      SerializeWorkerTrace(MakeWorker(0, {Kernel(0)})) + "," +
      SerializeWorkerTrace(MakeWorker(1, {Kernel(0)})) + "]}";
  const Result<JobTrace> overlap_parsed = ParseJobTrace(overlapping);
  EXPECT_FALSE(overlap_parsed.ok());
  EXPECT_NE(overlap_parsed.status().message().find("claimed by workers"), std::string::npos);
  // Folded ranks outside [0, world_size) would fall out of the simulator's
  // dense rank -> worker table and abort a collective rendezvous.
  const std::string out_of_range =
      R"({"world_size":1,"comms":[],"folded_ranks":[[0,7]],"workers":[)" +
      SerializeWorkerTrace(MakeWorker(0, {Kernel(0)})) + "]}";
  const Result<JobTrace> range_parsed = ParseJobTrace(out_of_range);
  EXPECT_FALSE(range_parsed.ok());
  EXPECT_NE(range_parsed.status().message().find("outside world size"), std::string::npos);
  // Wrong-typed fields are parse errors, not CHECK aborts.
  EXPECT_FALSE(
      ParseJobTrace(R"({"world_size":"two","comms":[],"folded_ranks":[],"workers":[]})").ok());
  EXPECT_FALSE(
      ParseJobTrace(R"({"world_size":1,"comms":{},"folded_ranks":[],"workers":[]})").ok());
}

}  // namespace
}  // namespace maya

// FleetJournal durability tests: append/recover round-trips, torn-tail
// repair, byte-exact rollback of faulted appends (journal.append_torn /
// journal.fsync), checkpoint.partial leaving the previous state recoverable,
// and the acceptance bar — a crash at an arbitrary point (no graceful
// checkpoint) recovers the exact fleet via checkpoint + journal replay, with
// warm predictions hex-identical to the pre-crash server — plus bundle-backed
// add_deployment, whose failures leave the registry and journal untouched.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/estimator/serialization.h"
#include "src/service/artifact_store.h"
#include "src/service/fleet_journal.h"
#include "src/service/service_engine.h"

namespace maya {
namespace {

ModelConfig TinyGpt() {
  ModelConfig model;
  model.name = "tiny-gpt";
  model.family = ModelFamily::kGpt;
  model.num_layers = 8;
  model.hidden_size = 1024;
  model.num_heads = 16;
  model.seq_length = 512;
  model.vocab_size = 8192;
  return model;
}

TrainConfig BaseConfig() {
  TrainConfig config;
  config.global_batch_size = 32;
  config.tensor_parallel = 2;
  config.pipeline_parallel = 2;
  config.microbatch_multiplier = 2;
  return config;
}

ProfileSweepOptions TestSweep() {
  ProfileSweepOptions sweep;
  sweep.gemm_samples = 1200;
  sweep.conv_samples = 100;
  sweep.generic_samples = 60;
  sweep.collective_sizes = 12;
  return sweep;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string JournalPath(const std::string& state_dir) {
  return (std::filesystem::path(state_dir) / "journal.ndjson").string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

AddDeploymentPayload MakeAdd(const std::string& name, const std::string& cluster,
                             const std::string& sweep = "tiny",
                             const std::string& bundle_dir = "") {
  AddDeploymentPayload payload;
  payload.name = name;
  payload.cluster = cluster;
  payload.sweep = sweep;
  payload.bundle_dir = bundle_dir;
  return payload;
}

ServiceRequest AddRequest(uint64_t id, const AddDeploymentPayload& payload) {
  ServiceRequest request;
  request.id = id;
  request.payload = payload;
  return request;
}

ServiceRequest PredictRequest(uint64_t id, const std::string& deployment = "") {
  ServiceRequest request;
  request.id = id;
  PredictPayload payload;
  payload.model = TinyGpt();
  payload.config = BaseConfig();
  payload.deployment = deployment;
  request.payload = std::move(payload);
  return request;
}

// The bit-reproducibility identity of a prediction.
std::string PredictSignature(const ServiceResponse& response) {
  return DoubleBits(response.iteration_time_us) + "/" + DoubleBits(response.mfu);
}

// Engines in this suite OWN their banks (SaveRegistry refuses borrowed-bank
// deployments), trained deterministically so two engines agree bit-for-bit.
std::unique_ptr<ServiceEngine> MakeOwningEngine(const ClusterSpec& cluster,
                                                ServiceEngineOptions options = {}) {
  const GroundTruthExecutor executor(cluster, 7);
  Result<std::unique_ptr<ServiceEngine>> created =
      ServiceEngine::Create(cluster, TrainEstimators(cluster, executor, TestSweep()), options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return *std::move(created);
}

TEST(FleetJournalTest, OpenOnFreshDirIsEmpty) {
  const std::string dir = FreshStateDir("journal_fresh");
  FleetJournal journal(dir);
  ASSERT_TRUE(journal.Open().ok());
  EXPECT_FALSE(journal.plan().has_checkpoint);
  EXPECT_TRUE(journal.plan().replay.empty());
  EXPECT_EQ(journal.plan().torn_records_dropped, 0u);
  const FleetJournalStats stats = journal.stats();
  EXPECT_EQ(stats.appends, 0u);
  EXPECT_EQ(stats.lag, 0u);
  EXPECT_EQ(stats.last_checkpoint_age_s, -1.0);
  EXPECT_FALSE(journal.CheckpointDue());
}

TEST(FleetJournalTest, AppendRecoverRoundTripPreservesEveryField) {
  const std::string dir = FreshStateDir("journal_roundtrip");
  {
    FleetJournal journal(dir);
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.AppendAdd(MakeAdd("fleet-a", "h100x16", "small")).ok());
    ASSERT_TRUE(journal.AppendAdd(MakeAdd("fleet-b", "v100x8", "", "/tmp/bundle")).ok());
    ASSERT_TRUE(journal.AppendRemove("fleet-a").ok());
    EXPECT_EQ(journal.stats().appends, 3u);
    EXPECT_EQ(journal.stats().lag, 3u);
  }  // close without checkpoint — every record must survive via the file alone

  FleetJournal reopened(dir);
  ASSERT_TRUE(reopened.Open().ok());
  const FleetRecoveryPlan& plan = reopened.plan();
  EXPECT_FALSE(plan.has_checkpoint);
  ASSERT_EQ(plan.replay.size(), 3u);

  EXPECT_EQ(plan.replay[0].seq, 1u);
  EXPECT_EQ(plan.replay[0].op, FleetJournalRecord::Op::kAdd);
  EXPECT_EQ(plan.replay[0].name, "fleet-a");
  EXPECT_EQ(plan.replay[0].cluster, "h100x16");
  EXPECT_EQ(plan.replay[0].sweep, "small");
  EXPECT_TRUE(plan.replay[0].bundle_dir.empty());

  EXPECT_EQ(plan.replay[1].seq, 2u);
  EXPECT_EQ(plan.replay[1].name, "fleet-b");
  EXPECT_EQ(plan.replay[1].cluster, "v100x8");
  EXPECT_EQ(plan.replay[1].bundle_dir, "/tmp/bundle");

  EXPECT_EQ(plan.replay[2].seq, 3u);
  EXPECT_EQ(plan.replay[2].op, FleetJournalRecord::Op::kRemove);
  EXPECT_EQ(plan.replay[2].name, "fleet-a");

  EXPECT_EQ(reopened.stats().replayed_records, 3u);
}

TEST(FleetJournalTest, TornTailIsRepairedAndJournalStaysAppendable) {
  const std::string dir = FreshStateDir("journal_torn");
  {
    FleetJournal journal(dir);
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.AppendAdd(MakeAdd("alpha", "h100x8")).ok());
    ASSERT_TRUE(journal.AppendAdd(MakeAdd("beta", "h100x16")).ok());
  }
  // Simulate kill -9 mid-append: trailing bytes with no newline.
  {
    std::ofstream out(JournalPath(dir), std::ios::binary | std::ios::app);
    out << R"({"seq":3,"op":"add","na)";
  }

  FleetJournal repaired(dir);
  ASSERT_TRUE(repaired.Open().ok());
  EXPECT_EQ(repaired.plan().torn_records_dropped, 1u);
  ASSERT_EQ(repaired.plan().replay.size(), 2u);
  EXPECT_EQ(repaired.plan().replay[1].name, "beta");

  // The torn record's mutation was never acknowledged, so its seq is free to
  // reuse; the repaired journal appends contiguously.
  ASSERT_TRUE(repaired.AppendRemove("alpha").ok());

  FleetJournal verified(dir);
  ASSERT_TRUE(verified.Open().ok());
  ASSERT_EQ(verified.plan().replay.size(), 3u);
  EXPECT_EQ(verified.plan().replay[2].seq, 3u);
  EXPECT_EQ(verified.plan().replay[2].op, FleetJournalRecord::Op::kRemove);
  EXPECT_EQ(verified.plan().torn_records_dropped, 0u);
}

TEST(FleetJournalTest, FaultedAppendRollsBackFileByteIdentical) {
  const std::string dir = FreshStateDir("journal_fault_rollback");
  FaultInjection& faults = FaultInjection::Instance();
  faults.Disarm();

  FleetJournal journal(dir);
  ASSERT_TRUE(journal.Open().ok());
  ASSERT_TRUE(journal.AppendAdd(MakeAdd("kept", "h100x8")).ok());
  const std::string before = ReadBytes(JournalPath(dir));
  ASSERT_FALSE(before.empty());

  // A torn write (half the line lands) must be truncated away.
  ASSERT_TRUE(faults.Configure("journal.append_torn=1", 1).ok());
  EXPECT_FALSE(journal.AppendAdd(MakeAdd("torn", "h100x16")).ok());
  faults.Disarm();
  EXPECT_EQ(ReadBytes(JournalPath(dir)), before);

  // A failed fsync means the record may not be durable — same rollback.
  ASSERT_TRUE(faults.Configure("journal.fsync=1", 1).ok());
  EXPECT_FALSE(journal.AppendRemove("kept").ok());
  faults.Disarm();
  EXPECT_EQ(ReadBytes(JournalPath(dir)), before);
  EXPECT_EQ(journal.stats().append_failures, 2u);
  EXPECT_EQ(journal.stats().appends, 1u);

  // Failed appends do not consume sequence numbers: the next success is seq 2.
  ASSERT_TRUE(journal.AppendAdd(MakeAdd("second", "h100x16")).ok());
  FleetJournal reopened(dir);
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_EQ(reopened.plan().replay.size(), 2u);
  EXPECT_EQ(reopened.plan().replay[0].seq, 1u);
  EXPECT_EQ(reopened.plan().replay[1].seq, 2u);
  EXPECT_EQ(reopened.plan().replay[1].name, "second");
}

// An engine-driven checkpoint compacts the journal, and recovery prefers the
// checkpoint bundle — restoring the registered fleet with warm predictions
// hex-identical to the saving engine.
TEST(FleetJournalTest, CheckpointCompactsAndRecoversBitIdentical) {
  const std::string dir = FreshStateDir("journal_checkpoint");
  const ClusterSpec cluster = H100Cluster(8);
  FaultInjection::Instance().Disarm();

  FleetJournalOptions journal_options;
  journal_options.checkpoint_every = 1;  // checkpoint after every mutation
  FleetJournal journal(dir, journal_options);
  ASSERT_TRUE(journal.Open().ok());

  ServiceEngineOptions options;
  options.journal = &journal;
  std::unique_ptr<ServiceEngine> engine = MakeOwningEngine(cluster, options);

  const ServiceResponse added =
      engine->Submit(AddRequest(1, MakeAdd("aux", "h100x16", "tiny"))).get();
  ASSERT_TRUE(added.ok) << added.error;

  // The add was journaled, then checkpoint_every=1 forced a checkpoint which
  // compacted the journal back to empty.
  const FleetJournalStats stats = journal.stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.lag, 0u);
  EXPECT_GE(stats.last_checkpoint_age_s, 0.0);
  EXPECT_EQ(std::filesystem::file_size(JournalPath(dir)), 0u);

  const ServiceResponse base_predict = engine->Submit(PredictRequest(2)).get();
  const ServiceResponse aux_predict = engine->Submit(PredictRequest(3, "aux")).get();
  ASSERT_TRUE(base_predict.ok && aux_predict.ok);
  engine->Shutdown();

  // Recovery: the plan points at the checkpoint, nothing to replay.
  FleetJournal recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  ASSERT_TRUE(recovered.plan().has_checkpoint);
  EXPECT_EQ(recovered.plan().checkpoint_seq, 1u);
  EXPECT_TRUE(recovered.plan().replay.empty());

  Result<std::unique_ptr<ServiceEngine>> restarted = ServiceEngine::FromArtifacts(
      cluster, ArtifactStore(recovered.plan().checkpoint_dir), ServiceEngineOptions{});
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE((*restarted)->registry().IsResident("aux"));

  const ServiceResponse base_again = (*restarted)->Submit(PredictRequest(4)).get();
  const ServiceResponse aux_again = (*restarted)->Submit(PredictRequest(5, "aux")).get();
  ASSERT_TRUE(base_again.ok && aux_again.ok);
  EXPECT_EQ(PredictSignature(base_again), PredictSignature(base_predict));
  EXPECT_EQ(PredictSignature(aux_again), PredictSignature(aux_predict));
  (*restarted)->Shutdown();
}

// checkpoint.partial fires between the bundle write and the pointer publish:
// the mutation stays acknowledged (checkpoints are advisory), the previous
// pointer state survives, and recovery replays the journal instead.
TEST(FleetJournalTest, CheckpointPartialFaultKeepsJournalRecoverable) {
  const std::string dir = FreshStateDir("journal_partial_checkpoint");
  const ClusterSpec cluster = H100Cluster(8);
  FaultInjection& faults = FaultInjection::Instance();
  faults.Disarm();

  FleetJournalOptions journal_options;
  journal_options.checkpoint_every = 1;
  FleetJournal journal(dir, journal_options);
  ASSERT_TRUE(journal.Open().ok());

  ServiceEngineOptions options;
  options.journal = &journal;
  std::unique_ptr<ServiceEngine> engine = MakeOwningEngine(cluster, options);

  ASSERT_TRUE(faults.Configure("checkpoint.partial=1", 3).ok());
  const ServiceResponse added =
      engine->Submit(AddRequest(1, MakeAdd("aux", "h100x16", "tiny"))).get();
  faults.Disarm();
  ASSERT_TRUE(added.ok) << added.error;  // the ADD succeeded; only the
                                         // checkpoint was lost
  EXPECT_EQ(journal.stats().checkpoint_failures, 1u);
  EXPECT_EQ(journal.stats().checkpoints, 0u);
  EXPECT_EQ(journal.stats().lag, 1u);
  engine->Shutdown();

  FleetJournal recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_FALSE(recovered.plan().has_checkpoint);
  ASSERT_EQ(recovered.plan().replay.size(), 1u);
  EXPECT_EQ(recovered.plan().replay[0].name, "aux");
}

// The acceptance bar for the journal-only path: kill the server with NO
// checkpoint ever taken, replay the journal tail through the normal admin
// path on a fresh engine, and every warm predict answers hex-identically.
TEST(FleetJournalTest, CrashRecoveryReplayIsBitIdentical) {
  const std::string dir = FreshStateDir("journal_replay_bitident");
  const ClusterSpec cluster = H100Cluster(8);
  FaultInjection::Instance().Disarm();

  std::string before_default;
  std::string before_aux;
  {
    FleetJournalOptions journal_options;
    journal_options.checkpoint_every = 100;  // never auto-checkpoint
    FleetJournal journal(dir, journal_options);
    ASSERT_TRUE(journal.Open().ok());
    ServiceEngineOptions options;
    options.journal = &journal;
    std::unique_ptr<ServiceEngine> engine = MakeOwningEngine(cluster, options);

    const ServiceResponse added =
        engine->Submit(AddRequest(1, MakeAdd("aux", "h100x16", "tiny"))).get();
    ASSERT_TRUE(added.ok) << added.error;
    const ServiceResponse base_predict = engine->Submit(PredictRequest(2)).get();
    const ServiceResponse aux_predict = engine->Submit(PredictRequest(3, "aux")).get();
    ASSERT_TRUE(base_predict.ok && aux_predict.ok);
    before_default = PredictSignature(base_predict);
    before_aux = PredictSignature(aux_predict);
    engine->Shutdown();
    // Scope exit = crash: the journal fd just closes; every acknowledged
    // record was fsync'd at append time, so nothing else was needed.
  }

  FleetJournal journal(dir);
  ASSERT_TRUE(journal.Open().ok());
  EXPECT_FALSE(journal.plan().has_checkpoint);
  ASSERT_EQ(journal.plan().replay.size(), 1u);
  EXPECT_EQ(journal.stats().replayed_records, 1u);

  // Mirror maya_serve's recovery: build the base engine, replay the tail
  // through Submit (journal not yet attached), then attach.
  std::unique_ptr<ServiceEngine> engine = MakeOwningEngine(cluster);
  uint64_t id = 100;
  for (const FleetJournalRecord& record : journal.plan().replay) {
    ServiceRequest request;
    request.id = id++;
    if (record.op == FleetJournalRecord::Op::kAdd) {
      if (engine->registry().IsResident(record.name)) {
        continue;
      }
      request.payload = MakeAdd(record.name, record.cluster, record.sweep, record.bundle_dir);
    } else {
      if (!engine->registry().IsResident(record.name)) {
        continue;
      }
      request.payload = RemoveDeploymentPayload{record.name};
    }
    const ServiceResponse replayed = engine->Submit(std::move(request)).get();
    ASSERT_TRUE(replayed.ok) << replayed.error;
  }
  engine->AttachJournal(&journal);

  EXPECT_TRUE(engine->registry().IsResident("aux"));
  const ServiceResponse base_again = engine->Submit(PredictRequest(200)).get();
  const ServiceResponse aux_again = engine->Submit(PredictRequest(201, "aux")).get();
  ASSERT_TRUE(base_again.ok && aux_again.ok);
  EXPECT_EQ(PredictSignature(base_again), before_default);
  EXPECT_EQ(PredictSignature(aux_again), before_aux);

  // Post-recovery mutations journal through the attached journal, and a
  // remove replays as the inverse of its add.
  ASSERT_TRUE(engine->Submit(AddRequest(300, MakeAdd("aux2", "h100x8", "tiny"))).get().ok);
  ServiceRequest remove;
  remove.id = 301;
  remove.payload = RemoveDeploymentPayload{"aux2"};
  ASSERT_TRUE(engine->Submit(std::move(remove)).get().ok);
  engine->Shutdown();

  FleetJournal final_journal(dir);
  ASSERT_TRUE(final_journal.Open().ok());
  ASSERT_EQ(final_journal.plan().replay.size(), 3u);
  EXPECT_EQ(final_journal.plan().replay[1].name, "aux2");
  EXPECT_EQ(final_journal.plan().replay[1].op, FleetJournalRecord::Op::kAdd);
  EXPECT_EQ(final_journal.plan().replay[2].name, "aux2");
  EXPECT_EQ(final_journal.plan().replay[2].op, FleetJournalRecord::Op::kRemove);
}

// A journal append failure must refuse the admin mutation (JOURNAL_ERROR)
// and roll the registration back — an unjournaled mutation must never
// outlive a restart it cannot replay into.
TEST(FleetJournalTest, JournalAppendFailureRollsBackTheAdd) {
  const std::string dir = FreshStateDir("journal_refused_add");
  const ClusterSpec cluster = H100Cluster(8);
  FaultInjection& faults = FaultInjection::Instance();
  faults.Disarm();

  FleetJournal journal(dir);
  ASSERT_TRUE(journal.Open().ok());
  ServiceEngineOptions options;
  options.journal = &journal;
  std::unique_ptr<ServiceEngine> engine = MakeOwningEngine(cluster, options);

  ASSERT_TRUE(faults.Configure("journal.fsync=1", 5).ok());
  const ServiceResponse refused =
      engine->Submit(AddRequest(1, MakeAdd("ghost", "h100x16", "tiny"))).get();
  faults.Disarm();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrJournal);
  EXPECT_FALSE(engine->registry().IsResident("ghost"));

  // Health surfaces the refusal; the engine keeps serving.
  const HealthStatus health = engine->Health();
  EXPECT_TRUE(health.journal_enabled);
  EXPECT_EQ(health.journal_append_failures, 1u);
  EXPECT_TRUE(engine->Submit(PredictRequest(2)).get().ok);
  engine->Shutdown();

  FleetJournal recovered(dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_TRUE(recovered.plan().replay.empty());
}

// ---- Bundle-backed add_deployment ------------------------------------------

// Saves a one-deployment bundle from an engine that answered one predict;
// returns that answer and keeps the saving bank alive in `bank`.
ServiceResponse SaveBundleAfterPredict(const std::string& bundle_dir,
                                       std::shared_ptr<const EstimatorBank>* bank) {
  std::unique_ptr<ServiceEngine> saver = MakeOwningEngine(H100Cluster(8));
  const ServiceResponse answer = saver->Submit(PredictRequest(1)).get();
  EXPECT_TRUE(answer.ok) << answer.error;
  EXPECT_TRUE(ArtifactStore(bundle_dir).SaveRegistry(saver->registry()).ok());
  *bank = saver->registry().Registered().front()->bank;
  saver->Shutdown();
  return answer;
}

// A bundle-backed add restores the saved estimators and warm caches instead
// of re-training: the new deployment answers from cache, hex-identically to
// the engine that saved the bundle.
TEST(FleetJournalTest, BundleBackedAddWarmsCachesAndAnswersLikeTheSaver) {
  const std::string bundle = FreshStateDir("add_bundle_source");
  const std::string state = FreshStateDir("add_bundle_state");
  std::shared_ptr<const EstimatorBank> bank;
  const ServiceResponse saved = SaveBundleAfterPredict(bundle, &bank);

  FleetJournal journal(state);
  ASSERT_TRUE(journal.Open().ok());
  ServiceEngineOptions options;
  options.journal = &journal;
  Result<std::unique_ptr<ServiceEngine>> created = ServiceEngine::Create(
      H100Cluster(8), bank->kernel.get(), bank->collective.get(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ServiceEngine& engine = **created;

  const ServiceResponse added =
      engine.Submit(AddRequest(2, MakeAdd("restored", "h100x8", "tiny", bundle))).get();
  ASSERT_TRUE(added.ok) << added.error;
  EXPECT_FALSE(added.trained);
  EXPECT_GT(added.warmed_entries, 0u);
  EXPECT_TRUE(engine.registry().IsResident("restored"));
  EXPECT_EQ(journal.stats().appends, 1u);

  const ServiceResponse answer = engine.Submit(PredictRequest(3, "restored")).get();
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(PredictSignature(answer), PredictSignature(saved));
  EXPECT_GT(answer.estimation.cache_hits, 0u);
  EXPECT_EQ(answer.estimation.cache_misses, 0u);
  engine.Shutdown();
}

// A damaged cache file fails the add before anything is registered: the
// registry and the journal stay as they were, and once the bundle is
// repaired the same add succeeds.
TEST(FleetJournalTest, DamagedBundleAddLeavesRegistryAndJournalUntouched) {
  const std::string bundle = FreshStateDir("add_damaged_source");
  const std::string state = FreshStateDir("add_damaged_state");
  std::shared_ptr<const EstimatorBank> bank;
  SaveBundleAfterPredict(bundle, &bank);
  const std::string cache = bundle + "/deployment_0/kernel_cache.json";
  const std::string pristine = ReadBytes(cache);
  ASSERT_GT(pristine.size(), 64u);
  std::ofstream(cache, std::ios::binary | std::ios::trunc)
      << pristine.substr(0, pristine.size() / 2);

  FleetJournal journal(state);
  ASSERT_TRUE(journal.Open().ok());
  ServiceEngineOptions options;
  options.journal = &journal;
  Result<std::unique_ptr<ServiceEngine>> created = ServiceEngine::Create(
      H100Cluster(8), bank->kernel.get(), bank->collective.get(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ServiceEngine& engine = **created;

  const ServiceResponse refused =
      engine.Submit(AddRequest(2, MakeAdd("restored", "h100x8", "tiny", bundle))).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrInvalidRequest);
  EXPECT_FALSE(engine.registry().IsResident("restored"));
  EXPECT_EQ(journal.stats().appends, 0u);
  EXPECT_EQ(ReadBytes(JournalPath(state)), "");

  std::ofstream(cache, std::ios::binary | std::ios::trunc) << pristine;
  const ServiceResponse retried =
      engine.Submit(AddRequest(3, MakeAdd("restored", "h100x8", "tiny", bundle))).get();
  EXPECT_TRUE(retried.ok) << retried.error;
  EXPECT_EQ(journal.stats().appends, 1u);
  engine.Shutdown();
}

}  // namespace
}  // namespace maya

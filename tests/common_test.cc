// Unit tests for src/common: status/result, rng, stats, hashing, strings,
// JSON writer/parser round-trips, thread pool and table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/hash.h"
#include "src/common/json_parser.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace maya {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::OutOfMemory("72 GiB requested");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(status.ToString(), "OUT_OF_MEMORY: 72 GiB requested");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "ALREADY_EXISTS");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = *std::move(result);
  EXPECT_EQ(*owned, 7);
}

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextUint64() == b.NextUint64() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng parent(9);
  Rng fork1 = parent.Fork(1);
  Rng fork1_again = Rng(9).Fork(1);
  EXPECT_EQ(fork1.NextUint64(), fork1_again.NextUint64());
  Rng fork2 = parent.Fork(2);
  EXPECT_NE(fork1.NextUint64(), fork2.NextUint64());
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.Uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, LognormalFactorHasUnitMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    stats.Add(rng.LognormalFactor(0.2));
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitMix64AvoidsFixedPointZero) { EXPECT_NE(SplitMix64(0), 0u); }

// ---- Stats ----------------------------------------------------------------------

TEST(StatsTest, MeanAndStdDev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(StdDev(xs), 2.138, 1e-3);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(StatsTest, MapeMatchesHandComputation) {
  EXPECT_NEAR(MeanAbsolutePercentageError({100.0, 200.0}, {110.0, 180.0}), 10.0, 1e-9);
  EXPECT_NEAR(AbsolutePercentageError(50.0, 40.0), 20.0, 1e-9);
}

TEST(StatsTest, RunningStatsTracksMinMax) {
  RunningStats stats;
  for (double x : {3.0, -1.0, 7.0, 2.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_NEAR(stats.mean(), 2.75, 1e-12);
}

// Pin the first-sample initialization: min/max must come from the data, not
// from the pre-first-Add zero state. A sign-crossing sequence (above) cannot
// catch a zero-initialized min_/max_ leaking through — these do.
TEST(StatsTest, RunningStatsMinMaxAllPositive) {
  RunningStats stats;
  for (double x : {5.0, 3.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.min(), 3.0);  // NOT 0.0
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(StatsTest, RunningStatsMinMaxAllNegative) {
  RunningStats stats;
  for (double x : {-5.0, -3.0, -9.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.min(), -9.0);
  EXPECT_DOUBLE_EQ(stats.max(), -3.0);  // NOT 0.0
}

// ---- Hash -----------------------------------------------------------------------

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(FnvHash(""), kFnvOffsetBasis);
  EXPECT_NE(FnvHash("a"), FnvHash("b"));
}

TEST(HashTest, RollingHashOrderSensitive) {
  RollingHash ab;
  ab.Update(1);
  ab.Update(2);
  RollingHash ba;
  ba.Update(2);
  ba.Update(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(HashTest, RollingHashResets) {
  RollingHash hash;
  hash.Update(42);
  hash.Reset();
  EXPECT_EQ(hash.digest(), RollingHash().digest());
}

TEST(HashTest, HashCombineNotCommutative) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---- Strings --------------------------------------------------------------------

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, JoinHandlesEdges) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(3.0 * kGiB), "3.00 GiB");
}

TEST(StringsTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(500), "500 us");
  EXPECT_EQ(HumanDuration(2500), "2.50 ms");
  EXPECT_EQ(HumanDuration(3.2e6), "3.20 s");
  EXPECT_EQ(HumanDuration(120e6), "2.0 min");
}

// ---- JSON writer + parser round trip ----------------------------------------------

TEST(JsonTest, WriterProducesValidObject) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string_view("maya"));
  w.Field("count", static_cast<int64_t>(3));
  w.Field("ratio", 0.5);
  w.Field("ok", true);
  w.KeyedBeginArray("xs");
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("name").AsString(), "maya");
  EXPECT_EQ(parsed->at("count").AsInt(), 3);
  EXPECT_DOUBLE_EQ(parsed->at("ratio").AsDouble(), 0.5);
  EXPECT_TRUE(parsed->at("ok").AsBool());
  EXPECT_EQ(parsed->at("xs").AsArray().size(), 2u);
}

TEST(JsonTest, EscapesSpecialCharacters) {
  JsonWriter w;
  w.BeginObject();
  w.Field("s", std::string_view("a\"b\\c\nd"));
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("s").AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, ParserHandlesNestedStructures) {
  Result<JsonValue> parsed = ParseJson(R"({"a": [1, {"b": null}, [true, false]], "c": -2.5e3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->at("a").AsArray()[1].at("b").is_null());
  EXPECT_DOUBLE_EQ(parsed->at("c").AsDouble(), -2500.0);
}

TEST(JsonTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(JsonTest, ParserHandlesUnicodeEscapes) {
  Result<JsonValue> parsed = ParseJson(R"(["A"])");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsArray()[0].AsString(), "A");
  EXPECT_FALSE(ParseJson("[\"\\u1F60\"]").ok());  // above 0xFF unsupported
}

TEST(JsonTest, ParserKeepsIntegersExact) {
  // 2^53+1, 2^64-1 and -2^63: none survives a round trip through a double.
  const std::string text = "[9007199254740993,18446744073709551615,-9223372036854775808]";
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonArray& values = parsed->AsArray();
  EXPECT_EQ(values[0].AsUint(), uint64_t{9007199254740993u});
  EXPECT_EQ(values[1].AsUint(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(values[2].AsInt(), std::numeric_limits<int64_t>::min());
  JsonWriter w;
  w.BeginArray();
  w.Uint(values[0].AsUint());
  w.Uint(values[1].AsUint());
  w.Int(values[2].AsInt());
  w.EndArray();
  EXPECT_EQ(w.str(), text);
}

TEST(JsonTest, AsDoubleIsExactlyStrtod) {
  for (const char* token :
       {"0", "-0", "7", "-7", "007", "9007199254740993", "18446744073709551615",
        "18446744073709551616", "-9223372036854775808", "-9223372036854775809",
        "123456789012345678901234567890", "-0.0", "2.5", "1e3", "-1E-5", "1e999"}) {
    Result<JsonValue> parsed = ParseJson(token);
    ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->AsDouble()),
              std::bit_cast<uint64_t>(std::strtod(token, nullptr)))
        << token;
  }
  EXPECT_FALSE(ParseJson("-").ok());
  EXPECT_FALSE(ParseJson("1.5e").ok());
  EXPECT_FALSE(ParseJson("[-0x1p3]").ok());
}

TEST(JsonTest, IntegerConversionsRefuseOutOfRange) {
  const auto parse = [](const char* text) { return *ParseJson(text); };
  EXPECT_EQ(*ToInt(parse("9223372036854775807")), std::numeric_limits<int64_t>::max());
  EXPECT_FALSE(ToInt(parse("9223372036854775808")).ok());
  EXPECT_FALSE(ToInt(parse("1e19")).ok());
  EXPECT_FALSE(ToInt(parse("-1e19")).ok());
  EXPECT_EQ(*ToInt(parse("-2.5")), -3);
  EXPECT_FALSE(ToUint(parse("-1")).ok());
  EXPECT_FALSE(ToUint(parse("18446744073709551616")).ok());
  EXPECT_FALSE(ToUint(parse("1e999")).ok());
  EXPECT_EQ(*ToUint(parse("2.5")), 3u);
  EXPECT_EQ(*ToUint(parse("-0")), 0u);
  EXPECT_EQ(ToInt(parse("\"7\"")).status().code(), StatusCode::kInvalidArgument);
}

// ---- ThreadPool -------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

// ---- TablePrinter -------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

// ---- Units ----------------------------------------------------------------------------

TEST(UnitsTest, TransferAndComputeConversions) {
  EXPECT_DOUBLE_EQ(TransferUs(1e9, 1e9), 1e6);        // 1 GB at 1 GB/s = 1 s
  EXPECT_DOUBLE_EQ(ComputeUs(2e12, 1e12), 2e6);       // 2 TFLOP at 1 TFLOP/s
}

// ---- Fault injection ------------------------------------------------------------------

// The registry is process-global; each test leaves it disarmed.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Disarm(); }
  void TearDown() override { FaultInjection::Instance().Disarm(); }
};

TEST_F(FaultInjectionTest, DisarmedProbesAlwaysSucceed) {
  FaultInjection& faults = FaultInjection::Instance();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(faults.MaybeFail("pipeline.simulate").ok());
  }
  EXPECT_EQ(faults.fired_count(), 0u);
  EXPECT_TRUE(faults.ArmedPatterns().empty());
}

TEST_F(FaultInjectionTest, ProbabilityOneFiresEveryProbe) {
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("service.worker=1", 7).ok());
  for (int i = 0; i < 10; ++i) {
    const Status probe = faults.MaybeFail("service.worker");
    EXPECT_FALSE(probe.ok());
    EXPECT_EQ(probe.code(), StatusCode::kInternal);
    EXPECT_NE(probe.ToString().find("service.worker"), std::string::npos);
  }
  EXPECT_EQ(faults.fired_count("service.worker"), 10u);
  // Unarmed sites are untouched.
  EXPECT_TRUE(faults.MaybeFail("pipeline.emulate").ok());
}

TEST_F(FaultInjectionTest, ProbabilityZeroNeverFires) {
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("pipeline.estimate=0", 7).ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(faults.MaybeFail("pipeline.estimate").ok());
  }
  EXPECT_EQ(faults.fired_count(), 0u);
}

TEST_F(FaultInjectionTest, FiringIsDeterministicGivenSeed) {
  FaultInjection& faults = FaultInjection::Instance();
  auto record = [&](uint64_t seed) {
    EXPECT_TRUE(faults.Configure("site.a=0.5,site.b=0.5", seed).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!faults.MaybeFail(i % 2 == 0 ? "site.a" : "site.b").ok());
    }
    return fired;
  };
  const std::vector<bool> first = record(11);
  const std::vector<bool> replay = record(11);
  EXPECT_EQ(first, replay);
  // Some probe fired and some did not at p=0.5 over 64 probes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // A different seed produces a different firing pattern.
  EXPECT_NE(record(12), first);
}

TEST_F(FaultInjectionTest, WildcardArmsEveryPrefixedSite) {
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("artifact.*=1", 3).ok());
  EXPECT_FALSE(faults.MaybeFail("artifact.corrupt").ok());
  EXPECT_FALSE(faults.MaybeFail("artifact.rename_torn").ok());
  EXPECT_TRUE(faults.MaybeFail("service.submit").ok());
  // First listed rule wins: an exact rule ahead of the wildcard overrides it.
  ASSERT_TRUE(faults.Configure("artifact.read=0,artifact.*=1", 3).ok());
  EXPECT_TRUE(faults.MaybeFail("artifact.read").ok());
  EXPECT_FALSE(faults.MaybeFail("artifact.corrupt").ok());
}

TEST_F(FaultInjectionTest, MaxFiresCapsTotalFires) {
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("service.submit=1@3", 5).ok());
  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    if (!faults.MaybeFail("service.submit").ok()) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(faults.fired_count("service.submit"), 3u);
}

TEST_F(FaultInjectionTest, MalformedSpecsRejectedWithoutArming) {
  FaultInjection& faults = FaultInjection::Instance();
  for (const char* bad : {"no-equals", "site=", "site=nan", "site=2.0", "site=-0.5",
                          "site=0.5@", "site=0.5@-1", "=0.5", "site=0.5@zero"}) {
    EXPECT_FALSE(faults.Configure(bad, 1).ok()) << bad;
    EXPECT_TRUE(faults.ArmedPatterns().empty()) << bad;
    EXPECT_TRUE(faults.MaybeFail("site").ok()) << bad;
  }
  // A bad spec does not clobber a previously armed good one.
  ASSERT_TRUE(faults.Configure("site.kept=1", 1).ok());
  EXPECT_FALSE(faults.Configure("broken", 1).ok());
  EXPECT_FALSE(faults.MaybeFail("site.kept").ok());
}

TEST_F(FaultInjectionTest, EmptySpecDisarms) {
  FaultInjection& faults = FaultInjection::Instance();
  ASSERT_TRUE(faults.Configure("site.x=1", 1).ok());
  EXPECT_FALSE(faults.MaybeFail("site.x").ok());
  ASSERT_TRUE(faults.Configure("", 1).ok());
  EXPECT_TRUE(faults.MaybeFail("site.x").ok());
  EXPECT_EQ(faults.fired_count(), 0u);  // counters reset
}

}  // namespace
}  // namespace maya

// Tests for the deterministic fault-injection harness: arming semantics,
// hit windows, seeded probabilistic firing, the spec-string grammar, value
// poisoning and scoped cleanup.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"

namespace privrec::fault {
namespace {

TEST(FaultInjectionTest, UnarmedPointNeverFiresAndCountsNoHits) {
  ScopedFaultInjection scope;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Hit("nowhere"), FaultKind::kNone);
  }
  EXPECT_EQ(FaultInjector::Instance().HitCount("nowhere"), 0);
}

TEST(FaultInjectionTest, EveryHitFiresWhenArmedWithDefaults) {
  ScopedFaultInjection scope("p", FaultSpec{.kind = FaultKind::kIoError});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Hit("p"), FaultKind::kIoError);
  }
  EXPECT_EQ(FaultInjector::Instance().HitCount("p"), 5);
  EXPECT_EQ(Hit("other"), FaultKind::kNone);
}

TEST(FaultInjectionTest, ArmNthFiresExactlyOnce) {
  ScopedFaultInjection scope;
  FaultInjector::Instance().ArmNth("p", FaultKind::kShortRead, 3);
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
  EXPECT_EQ(Hit("p"), FaultKind::kShortRead);
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
}

TEST(FaultInjectionTest, HitWindowFiresInRange) {
  ScopedFaultInjection scope(
      "p", FaultSpec{.kind = FaultKind::kNaN, .first_hit = 2, .count = 2});
  std::vector<FaultKind> observed;
  for (int i = 0; i < 5; ++i) observed.push_back(Hit("p"));
  EXPECT_EQ(observed, (std::vector<FaultKind>{
                          FaultKind::kNone, FaultKind::kNaN, FaultKind::kNaN,
                          FaultKind::kNone, FaultKind::kNone}));
}

TEST(FaultInjectionTest, SeededCoinIsDeterministic) {
  const FaultSpec spec{.kind = FaultKind::kIoError,
                       .probability = 0.5,
                       .seed = 42};
  std::vector<FaultKind> first;
  {
    ScopedFaultInjection scope("p", spec);
    for (int i = 0; i < 64; ++i) first.push_back(Hit("p"));
  }
  std::vector<FaultKind> second;
  {
    ScopedFaultInjection scope("p", spec);
    for (int i = 0; i < 64; ++i) second.push_back(Hit("p"));
  }
  EXPECT_EQ(first, second);
  // A fair-ish coin over 64 hits fires at least once and skips at least
  // once (deterministic given the seed, so this cannot flake).
  int fired = 0;
  for (FaultKind k : first) fired += (k != FaultKind::kNone);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST(FaultInjectionTest, ZeroProbabilityNeverFires) {
  ScopedFaultInjection scope("p", FaultSpec{.kind = FaultKind::kIoError,
                                            .probability = 0.0,
                                            .seed = 7});
  for (int i = 0; i < 32; ++i) EXPECT_EQ(Hit("p"), FaultKind::kNone);
}

TEST(FaultInjectionTest, LatencyKindArmsFromSpecString) {
  ScopedFaultInjection scope;
  Status s = FaultInjector::Instance().ArmFromSpec("slow.read=latency@2");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Hit("slow.read"), FaultKind::kNone);
  EXPECT_EQ(Hit("slow.read"), FaultKind::kLatency);
  EXPECT_EQ(Hit("slow.read"), FaultKind::kNone);
}

TEST(FaultInjectionTest, SpecStringArmsMultiplePoints) {
  ScopedFaultInjection scope;
  Status s = FaultInjector::Instance().ArmFromSpec(
      "a=io_error@2;b=nan;c=short_read@1+2");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Hit("a"), FaultKind::kNone);
  EXPECT_EQ(Hit("a"), FaultKind::kIoError);
  EXPECT_EQ(Hit("a"), FaultKind::kNone);
  EXPECT_EQ(Hit("b"), FaultKind::kNaN);
  EXPECT_EQ(Hit("b"), FaultKind::kNaN);
  EXPECT_EQ(Hit("c"), FaultKind::kShortRead);
  EXPECT_EQ(Hit("c"), FaultKind::kShortRead);
  EXPECT_EQ(Hit("c"), FaultKind::kNone);
}

TEST(FaultInjectionTest, SpecStringOpenEndedTailAndProbability) {
  ScopedFaultInjection scope;
  ASSERT_TRUE(FaultInjector::Instance()
                  .ArmFromSpec("tail=bad_alloc@3+;coin=inf%1.0:9")
                  .ok());
  EXPECT_EQ(Hit("tail"), FaultKind::kNone);
  EXPECT_EQ(Hit("tail"), FaultKind::kNone);
  EXPECT_EQ(Hit("tail"), FaultKind::kBadAlloc);
  EXPECT_EQ(Hit("tail"), FaultKind::kBadAlloc);
  // Probability 1.0 through the coin path still always fires.
  EXPECT_EQ(Hit("coin"), FaultKind::kInf);
}

TEST(FaultInjectionTest, MalformedSpecIsRejected) {
  ScopedFaultInjection scope;
  FaultInjector& inj = FaultInjector::Instance();
  EXPECT_FALSE(inj.ArmFromSpec("nokind").ok());
  EXPECT_FALSE(inj.ArmFromSpec("p=frobnicate").ok());
  EXPECT_FALSE(inj.ArmFromSpec("p=io_error@zero").ok());
  EXPECT_FALSE(inj.ArmFromSpec("p=io_error%2.0:1").ok());
}

TEST(FaultInjectionTest, MaybePoisonInjectsNaNAndInf) {
  {
    ScopedFaultInjection scope("v", FaultSpec{.kind = FaultKind::kNaN});
    EXPECT_TRUE(std::isnan(MaybePoison("v", 1.5)));
  }
  {
    ScopedFaultInjection scope("v", FaultSpec{.kind = FaultKind::kInf});
    EXPECT_TRUE(std::isinf(MaybePoison("v", 1.5)));
  }
  {
    // Non-poison kinds leave the value alone.
    ScopedFaultInjection scope("v", FaultSpec{.kind = FaultKind::kIoError});
    EXPECT_DOUBLE_EQ(MaybePoison("v", 1.5), 1.5);
  }
  EXPECT_DOUBLE_EQ(MaybePoison("v", 1.5), 1.5);
}

TEST(FaultInjectionTest, ScopedInjectionDisarmsOnExit) {
  {
    ScopedFaultInjection scope("p", FaultSpec{.kind = FaultKind::kIoError});
    EXPECT_EQ(Hit("p"), FaultKind::kIoError);
  }
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
  EXPECT_FALSE(FaultInjector::Instance().AnyArmed());
}

TEST(FaultInjectionTest, RearmingResetsTheHitCounter) {
  ScopedFaultInjection scope;
  FaultInjector& inj = FaultInjector::Instance();
  inj.ArmNth("p", FaultKind::kIoError, 2);
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
  EXPECT_EQ(Hit("p"), FaultKind::kIoError);
  inj.ArmNth("p", FaultKind::kIoError, 2);
  EXPECT_EQ(inj.HitCount("p"), 0);
  EXPECT_EQ(Hit("p"), FaultKind::kNone);
  EXPECT_EQ(Hit("p"), FaultKind::kIoError);
}

TEST(FaultInjectionTest, KindNamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kIoError, FaultKind::kShortRead, FaultKind::kNaN,
        FaultKind::kInf, FaultKind::kBadAlloc, FaultKind::kLatency}) {
    FaultKind parsed = FaultKind::kNone;
    ASSERT_TRUE(ParseFaultKind(FaultKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  FaultKind parsed = FaultKind::kNone;
  EXPECT_FALSE(ParseFaultKind("frobnicate", &parsed));
}

}  // namespace
}  // namespace privrec::fault

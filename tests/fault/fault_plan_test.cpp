// FaultPlan: site naming, spec parsing, and option validation.
#include "fault/fault_plan.h"

#include <set>
#include <string>

#include "gtest/gtest.h"

namespace malisim::fault {
namespace {

TEST(FaultSiteTest, EverySiteHasAUniqueNameThatRoundTrips) {
  std::set<std::string> names;
  for (int i = 0; i < kNumFaultSites; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    const std::string name(FaultSiteName(site));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown") << "site " << i << " is missing a name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    FaultSite back;
    ASSERT_TRUE(FaultSiteFromName(name, &back)) << name;
    EXPECT_EQ(back, site);
  }
}

TEST(FaultSiteTest, FromNameRejectsUnknown) {
  FaultSite site;
  EXPECT_FALSE(FaultSiteFromName("gamma-ray", &site));
  EXPECT_FALSE(FaultSiteFromName("", &site));
  EXPECT_FALSE(FaultSiteFromName("ALLOC", &site));
}

TEST(FaultPlanTest, DefaultPlanInjectsNothingButKeepsQuirks) {
  FaultPlan plan;
  EXPECT_FALSE(plan.InjectionActive());
  EXPECT_TRUE(plan.fp64_erratum);
  EXPECT_TRUE(plan.reg_budget);
}

TEST(FaultPlanTest, ApplySpecSetsIndividualSites) {
  FaultPlan plan;
  ASSERT_TRUE(plan.ApplySpec("map=0.25,build=1.0").ok());
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kMap), 0.25);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kBuild), 1.0);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kAlloc), 0.0);
  EXPECT_TRUE(plan.InjectionActive());
}

TEST(FaultPlanTest, ApplySpecAllFillsEverySite) {
  FaultPlan plan;
  ASSERT_TRUE(plan.ApplySpec("all=0.125").ok());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_DOUBLE_EQ(plan.rate(static_cast<FaultSite>(i)), 0.125);
  }
}

TEST(FaultPlanTest, ApplySpecAllThenOverride) {
  FaultPlan plan;
  ASSERT_TRUE(plan.ApplySpec("all=0.5,meter=0").ok());
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kMeterDropout), 0.0);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kWrite), 0.5);
}

TEST(FaultPlanTest, ApplySpecRejectsMalformedEntries) {
  FaultPlan plan;
  EXPECT_EQ(plan.ApplySpec("map").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan.ApplySpec("map=zebra").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan.ApplySpec("map=1.5").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan.ApplySpec("map=-0.1").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan.ApplySpec("warp=0.5").code(), ErrorCode::kInvalidArgument);
}

TEST(FaultPlanTest, ApplySpecIgnoresEmptyEntries) {
  FaultPlan plan;
  ASSERT_TRUE(plan.ApplySpec(",map=0.5,,").ok());
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::kMap), 0.5);
}

TEST(FaultPlanTest, FromOptionsAppliesUniformRateThenSpec) {
  FaultOptions options;
  options.seed = 77;
  options.rate = 0.1;
  options.spec = "meter=0.9";
  StatusOr<FaultPlan> plan = FaultPlan::FromOptions(options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 77u);
  EXPECT_DOUBLE_EQ(plan->rate(FaultSite::kWrite), 0.1);
  EXPECT_DOUBLE_EQ(plan->rate(FaultSite::kMeterDropout), 0.9);
}

TEST(FaultPlanTest, FromOptionsValidates) {
  FaultOptions options;
  options.rate = 1.5;
  EXPECT_EQ(FaultPlan::FromOptions(options).status().code(),
            ErrorCode::kInvalidArgument);
  options.rate = 0.0;
  options.watchdog_sec = -1.0;
  EXPECT_EQ(FaultPlan::FromOptions(options).status().code(),
            ErrorCode::kInvalidArgument);
  options.watchdog_sec = 0.0;
  options.spec = "bogus=1";
  EXPECT_EQ(FaultPlan::FromOptions(options).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(ParseFaultFlagTest, ParsesTheFourFaultFlags) {
  FaultOptions options;
  EXPECT_TRUE(*ParseFaultFlag("--fault-seed=7", &options));
  EXPECT_TRUE(*ParseFaultFlag("--fault-rate=0.05", &options));
  EXPECT_TRUE(*ParseFaultFlag("--fault-spec=build=0.1,map=0.05", &options));
  EXPECT_TRUE(*ParseFaultFlag("--watchdog=5e-4", &options));
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.rate, 0.05);
  EXPECT_EQ(options.spec, "build=0.1,map=0.05");
  EXPECT_EQ(options.watchdog_sec, 5e-4);
}

TEST(ParseFaultFlagTest, LeavesOtherFlagsAlone) {
  FaultOptions options;
  for (const char* arg : {"--seed=3", "--quick", "--fault-rates=1",
                          "--watchdog", "fault-rate=0.5"}) {
    const StatusOr<bool> parsed = ParseFaultFlag(arg, &options);
    ASSERT_TRUE(parsed.ok()) << arg;
    EXPECT_FALSE(*parsed) << arg;
  }
  EXPECT_EQ(options.rate, 0.0);
  EXPECT_EQ(options.seed, 0u);
}

TEST(ParseFaultFlagTest, RejectsValuesThatAreNotWhollyNumbers) {
  for (const char* arg :
       {"--fault-rate=abc", "--fault-rate=", "--fault-rate=0.1x",
        "--fault-rate=nan", "--watchdog=1s", "--watchdog=inf",
        "--watchdog= 1", "--fault-seed=-1", "--fault-seed=7.5",
        "--fault-seed=", "--fault-seed=99999999999999999999999"}) {
    FaultOptions options;
    const StatusOr<bool> parsed = ParseFaultFlag(arg, &options);
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << arg;
  }
}

TEST(ParseFaultFlagTest, ErrorNamesTheFlagAndValue) {
  FaultOptions options;
  const StatusOr<bool> parsed = ParseFaultFlag("--watchdog=1s", &options);
  ASSERT_FALSE(parsed.ok());
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("--watchdog"), std::string::npos) << message;
  EXPECT_NE(message.find("'1s'"), std::string::npos) << message;
}

TEST(FaultOptionsTest, ActivityPredicates) {
  FaultOptions options;
  EXPECT_FALSE(options.InjectionActive());
  EXPECT_FALSE(options.ResilienceActive());
  options.watchdog_sec = 1.0;
  EXPECT_FALSE(options.InjectionActive());
  EXPECT_TRUE(options.ResilienceActive());
  options.watchdog_sec = 0.0;
  options.rate = 0.01;
  EXPECT_TRUE(options.InjectionActive());
  EXPECT_TRUE(options.ResilienceActive());
  options.rate = 0.0;
  options.spec = "map=1";
  EXPECT_TRUE(options.InjectionActive());
}

}  // namespace
}  // namespace malisim::fault

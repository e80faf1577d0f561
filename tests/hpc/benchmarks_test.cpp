// Integration tests over the nine benchmarks: every variant of every
// benchmark validates functionally in both precisions (at reduced problem
// sizes), and benchmark-specific behaviours (the amcd FP64 erratum, the
// nbody/2dcon FP64 fallbacks) hold.
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "hpc/benchmark.h"
#include "hpc/kernels.h"

namespace malisim::hpc {
namespace {

ProblemSizes QuickSizes() {
  ProblemSizes sizes;
  sizes.spmv_rows = 512;
  sizes.spmv_avg_nnz_per_row = 12;
  sizes.vecop_n = 1 << 13;
  sizes.hist_n = 1 << 13;
  sizes.hist_bins = 128;
  sizes.stencil_dim = 16;
  sizes.red_n = 1 << 13;
  sizes.amcd_chains = 32;
  sizes.amcd_atoms = 12;
  sizes.amcd_steps = 8;
  sizes.nbody_n = 128;
  sizes.conv_dim = 64;
  sizes.dmmm_n = 32;
  return sizes;
}

struct BoardFixture {
  cpu::CortexA15Device cpu;
  ocl::Context gpu;
  Devices devices{&cpu, &gpu};
};

using VariantCase = std::tuple<std::string, Variant, bool /*fp64*/>;

class BenchmarkVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(BenchmarkVariantTest, ValidatesFunctionally) {
  const auto& [name, variant, fp64] = GetParam();
  // The paper's documented GPU gaps in double precision.
  const bool expect_build_failure =
      fp64 && name == "amcd" &&
      (variant == Variant::kOpenCL || variant == Variant::kOpenCLOpt);

  std::unique_ptr<Benchmark> bench = CreateBenchmark(name, QuickSizes());
  ASSERT_NE(bench, nullptr);
  ASSERT_TRUE(bench->Setup(fp64, 1234).ok());
  BoardFixture board;
  StatusOr<RunOutcome> outcome = bench->Run(variant, board.devices);
  if (expect_build_failure) {
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), ErrorCode::kBuildFailure);
    return;
  }
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->validated)
      << name << "/" << VariantName(variant) << " max rel err "
      << outcome->max_rel_error << " note: " << outcome->note;
  EXPECT_GT(outcome->seconds, 0.0);
  EXPECT_GT(outcome->profile.seconds, 0.0);
}

std::vector<VariantCase> AllCases() {
  std::vector<VariantCase> cases;
  for (const std::string& name : RegisteredBenchmarks()) {
    for (Variant v : kAllVariants) {
      for (bool fp64 : {false, true}) {
        cases.push_back({name, v, fp64});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<VariantCase>& info) {
  const auto& [name, variant, fp64] = info.param;
  std::string n = name + "_";
  switch (variant) {
    case Variant::kSerial: n += "serial"; break;
    case Variant::kOpenMP: n += "openmp"; break;
    case Variant::kOpenCL: n += "opencl"; break;
    case Variant::kOpenCLOpt: n += "openclopt"; break;
    case Variant::kHetero: n += "hetero"; break;
  }
  n += fp64 ? "_dp" : "_sp";
  // "3dstc" starts with a digit and "2dcon" too; prefix for valid names.
  return "b" + n;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkVariantTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(BenchmarkRegistryTest, PaperOrderAndFactories) {
  const auto names = RegisteredBenchmarks();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "spmv");
  EXPECT_EQ(names.back(), "dmmm");
  for (const std::string& name : names) {
    EXPECT_NE(CreateBenchmark(name), nullptr) << name;
  }
  EXPECT_EQ(CreateBenchmark("not_a_benchmark"), nullptr);
}

TEST(BenchmarkTest, DeterministicAcrossRuns) {
  auto bench = CreateBenchmark("vecop", QuickSizes());
  ASSERT_TRUE(bench->Setup(false, 99).ok());
  BoardFixture board;
  auto first = bench->Run(Variant::kOpenCLOpt, board.devices);
  ASSERT_TRUE(first.ok());
  BoardFixture board2;
  auto second = bench->Run(Variant::kOpenCLOpt, board2.devices);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first->seconds, second->seconds);
}

TEST(BenchmarkTest, SeedChangesInputsButStillValidates) {
  auto bench = CreateBenchmark("dmmm", QuickSizes());
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ASSERT_TRUE(bench->Setup(false, seed).ok());
    BoardFixture board;
    auto outcome = bench->Run(Variant::kOpenCL, board.devices);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->validated) << "seed " << seed;
  }
}

TEST(BenchmarkTest, NbodyDpOptFallsBackWithNote) {
  auto bench = CreateBenchmark("nbody", QuickSizes());
  ASSERT_TRUE(bench->Setup(true, 42).ok());
  BoardFixture board;
  auto outcome = bench->Run(Variant::kOpenCLOpt, board.devices);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome->note.find("CL_OUT_OF_RESOURCES"), std::string::npos);
  EXPECT_TRUE(outcome->validated);
}

TEST(BenchmarkTest, NbodySpOptDoesNotFallBack) {
  auto bench = CreateBenchmark("nbody", QuickSizes());
  ASSERT_TRUE(bench->Setup(false, 42).ok());
  BoardFixture board;
  auto outcome = bench->Run(Variant::kOpenCLOpt, board.devices);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->note.find("CL_OUT_OF_RESOURCES"), std::string::npos);
}

TEST(BenchmarkTest, Conv2dDpOptFallsBackWithNote) {
  auto bench = CreateBenchmark("2dcon", QuickSizes());
  ASSERT_TRUE(bench->Setup(true, 42).ok());
  BoardFixture board;
  auto outcome = bench->Run(Variant::kOpenCLOpt, board.devices);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_NE(outcome->note.find("CL_OUT_OF_RESOURCES"), std::string::npos);
  EXPECT_TRUE(outcome->validated);
}

TEST(BenchmarkTest, DmmmDpOptSurvivesRegisterBudget) {
  // The paper's one heavily-optimized FP64 kernel that fits (30x speedup).
  auto bench = CreateBenchmark("dmmm", QuickSizes());
  ASSERT_TRUE(bench->Setup(true, 42).ok());
  BoardFixture board;
  auto outcome = bench->Run(Variant::kOpenCLOpt, board.devices);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->note.empty()) << outcome->note;
  EXPECT_TRUE(outcome->validated);
}

TEST(BenchmarkTest, HistRejectsTooManyBins) {
  ProblemSizes sizes = QuickSizes();
  sizes.hist_bins = 512;
  auto bench = CreateBenchmark("hist", sizes);
  EXPECT_FALSE(bench->Setup(false, 1).ok());
}

TEST(BenchmarkTest, AmcdBitExactAcrossCpuVariants) {
  // Serial and OpenMP replay the same RNG streams: results are identical.
  auto bench = CreateBenchmark("amcd", QuickSizes());
  ASSERT_TRUE(bench->Setup(false, 7).ok());
  BoardFixture board;
  auto serial = bench->Run(Variant::kSerial, board.devices);
  auto openmp = bench->Run(Variant::kOpenMP, board.devices);
  ASSERT_TRUE(serial.ok() && openmp.ok());
  EXPECT_EQ(serial->max_rel_error, 0.0);
  EXPECT_EQ(openmp->max_rel_error, 0.0);
}

}  // namespace
}  // namespace malisim::hpc

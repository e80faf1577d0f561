// The figures' OpenCL Opt column is the tuner's paper point: for every
// benchmark and precision on the Mali at the --quick sizes, the modelled
// seconds the tuner records for PaperOptConfig() under the time objective
// equal the ExperimentRunner's OpenCL Opt cell exactly. The exceptions are
// the paper's own FP64 events:
//  * nbody and 2dcon: the paper's kernel exceeds the register budget, so
//    the tuner skips that point while the figure cell falls back to the
//    milder kernel and says so in its note;
//  * amcd: the compiler erratum fails every build, so the search finds
//    nothing and the cell is unavailable.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/tuning.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "sim/tuner.h"

namespace malisim::harness {
namespace {

using PaperCase = std::tuple<std::string, bool /*fp64*/>;

class PaperPointTest : public ::testing::TestWithParam<PaperCase> {};

TEST_P(PaperPointTest, FigureCellIsTheTunersPaperPoint) {
  const auto& [name, fp64] = GetParam();

  TuningRequest request;
  request.benchmark = name;
  request.sizes = hpc::ProblemSizes::Quick();
  request.fp64 = fp64;
  request.tuner.objective = sim::Objective::kTime;
  request.tuner.threads = 2;
  StatusOr<TuningReport> report = TuneBenchmark(request);

  ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.fp64 = fp64;
  config.repetitions = 2;
  ExperimentRunner runner(config);
  StatusOr<BenchmarkResults> results = runner.RunBenchmark(name);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const VariantResult& cell = results->Get(hpc::Variant::kOpenCLOpt);

  if (fp64 && name == "amcd") {
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), ErrorCode::kNotFound);
    EXPECT_FALSE(cell.available);
    return;
  }
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(cell.available) << cell.unavailable_reason;

  const std::string paper_key = report->paper_config.CanonicalKey();
  const sim::TuningTrajectoryPoint* paper = nullptr;
  for (const sim::TuningTrajectoryPoint& p : report->result.trajectory) {
    if (p.config_key == paper_key) paper = &p;
  }
  ASSERT_NE(paper, nullptr) << paper_key << " was never evaluated";

  if (fp64 && (name == "nbody" || name == "2dcon")) {
    EXPECT_FALSE(paper->ok) << "the paper kernel must exceed the budget";
    EXPECT_NE(cell.note.find("CL_OUT_OF_RESOURCES"), std::string::npos)
        << cell.note;
    EXPECT_NE(cell.note.find("fell back to"), std::string::npos)
        << cell.note;
    return;
  }
  ASSERT_TRUE(paper->ok);
  EXPECT_EQ(paper->score, cell.seconds);  // exact: one code path
  EXPECT_TRUE(cell.note.empty()) << cell.note;
}

std::vector<PaperCase> AllCases() {
  std::vector<PaperCase> cases;
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    for (bool fp64 : {false, true}) cases.emplace_back(name, fp64);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, PaperPointTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<PaperCase>& case_info) {
      // "3dstc" and "2dcon" start with a digit: prefix for valid names.
      return "b" + std::get<0>(case_info.param) +
             (std::get<1>(case_info.param) ? "_fp64" : "_fp32");
    });

}  // namespace
}  // namespace malisim::harness

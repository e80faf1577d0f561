// Exporter robustness under meter-dropout faults: a run whose virtual
// WT230 drops samples (up to every sample of every window) must still
// round-trip through the metrics JSON, the power-timeline CSV and the
// Perfetto trace without NaN/Inf or structural garbage — empty measurement
// windows are a modelled outcome, not an export error.
#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/power_sampler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "power/power_model.h"

namespace malisim::obs {
namespace {

/// No printf-formatted non-finite double anywhere: a NaN/Inf would render
/// as "nan"/"inf" right after a key or separator. Word matches ("info")
/// don't trip this.
void ExpectFinite(const std::string& text, const std::string& label) {
  for (const char* bad : {":nan", ":-nan", ":inf", ":-inf", ",nan", ",-nan",
                          ",inf", ",-inf"}) {
    EXPECT_EQ(text.find(bad), std::string::npos)
        << label << " contains non-finite value near '" << bad << "'";
  }
}

struct FaultRun {
  Recorder recorder;
  bool ok = false;
};

void RunWithMeterDropouts(double dropout_rate, FaultRun* run) {
  harness::ExperimentConfig config;
  config.sizes = hpc::ProblemSizes::Quick();
  config.repetitions = 3;
  config.fault.seed = 7;
  config.fault.spec = "meter=" + std::to_string(dropout_rate);
  config.recorder = &run->recorder;
  harness::ExperimentRunner runner(config);
  auto result = runner.RunBenchmark("vecop");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  run->recorder.Seal();
  run->ok = true;
}

class ExportFaultTest : public ::testing::TestWithParam<double> {};

TEST_P(ExportFaultTest, ExportsStayFiniteUnderMeterDropouts) {
  FaultRun run;
  RunWithMeterDropouts(GetParam(), &run);
  ASSERT_TRUE(run.ok);
  const power::PowerModel model;

  const std::string metrics = MetricsJson(run.recorder, model);
  ExpectFinite(metrics, "metrics JSON");
  EXPECT_EQ(std::count(metrics.begin(), metrics.end(), '{'),
            std::count(metrics.begin(), metrics.end(), '}'));
  EXPECT_EQ(std::count(metrics.begin(), metrics.end(), '['),
            std::count(metrics.begin(), metrics.end(), ']'));

  const PowerSampler sampler(&model, 10.0);
  const PowerTimeline timeline =
      sampler.Render(run.recorder.power_segments());
  const std::string csv = PowerTimelineCsv(timeline);
  ExpectFinite(csv, "power CSV");
  for (const PowerSample& sample : timeline.samples) {
    EXPECT_TRUE(std::isfinite(sample.watts.total));
    EXPECT_TRUE(std::isfinite(sample.watts.cpu));
    EXPECT_TRUE(std::isfinite(sample.watts.gpu));
    EXPECT_TRUE(std::isfinite(sample.watts.dram));
  }

  TraceBuilder trace;
  BuildTrace(run.recorder, model, &trace);
  const std::string trace_json = trace.ToJson();
  ExpectFinite(trace_json, "Perfetto trace");
  EXPECT_EQ(trace_json.front(), '[');
  EXPECT_EQ(std::count(trace_json.begin(), trace_json.end(), '{'),
            std::count(trace_json.begin(), trace_json.end(), '}'));
}

// 0.5 = flaky link (some windows partially sampled); 1.0 = dead link
// (every repetition fails, power means collapse to zero-sample windows).
INSTANTIATE_TEST_SUITE_P(DropoutRates, ExportFaultTest,
                         ::testing::Values(0.5, 1.0),
                         [](const ::testing::TestParamInfo<double>& case_info) {
                           return case_info.param == 1.0 ? "dead_link"
                                                         : "flaky_link";
                         });

}  // namespace
}  // namespace malisim::obs

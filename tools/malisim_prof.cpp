// malisim-prof: the Streamline-style profiler front-end.
//
// Runs the selected benchmarks with an observability recorder attached,
// prints a profile report (hot opcodes, cache hit rates, pipe bottleneck,
// energy breakdown) and writes the machine-readable artifacts into the
// output directory:
//
//   profile_trace.json    Chrome/Perfetto trace: per-shader-core kernel
//                         spans with nested work-group slices, the host
//                         command queue, and a per-rail power counter track
//                         (load in https://ui.perfetto.dev)
//   profile_metrics.json  full metrics dump, schema "malisim-prof-v1"
//   profile_metrics.csv   one row per (kernel launch, modelled core)
//   profile_power.csv     the sampled power timeline, one row per sample
//   profile_hotspots.collapsed  (--hotspots only) collapsed-stack dump of
//                         the host-side self-profile, ready for
//                         flamegraph.pl / speedscope
//
// Usage:
//   malisim-prof [--fp64] [--quick] [--benchmarks=a,b,c] [--out=DIR]
//                [--power-hz=N] [--seed=N] [--repetitions=N] [--no-trace]
//                [--hotspots] [--prof-mode=sampled|exact] [--prof-period=N]
//
// --hotspots turns on the host-side self-profiler (obs/host_prof.h): the
// run additionally prints a ranked host-time table (phases, interpreter
// opcodes, kernel basic blocks) with the attributed fraction of wall time,
// and writes the collapsed-stack file above. Host wall-clock numbers stay
// strictly out of every modelled artifact.
//
// Benchmarks run serially (sim_threads implied 1 for the export path):
// parallel RunAll records kernel/segment order nondeterministically, and
// the trace layout derives from record order. The modelled numbers are
// identical either way; only this tool's track layout needs the order.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "hpc/benchmark.h"
#include "obs/export.h"
#include "obs/host_prof.h"
#include "obs/metrics.h"
#include "obs/obs_options.h"
#include "obs/power_sampler.h"
#include "obs/recorder.h"
#include "power/power_model.h"

namespace malisim {
namespace {

struct ProfOptions {
  bool fp64 = false;
  bool quick = false;
  bool trace = true;
  /// Print the compact per-kernel percentile summary (p50/p90/p99/max of
  /// modelled launch time) instead of the full text report.
  bool summary = false;
  double power_hz = 10.0;
  std::uint64_t seed = 42;
  int repetitions = 5;
  /// Host-side self-profiling (--hotspots): ranked host-time report and
  /// the collapsed-stack artifact. --prof-mode=exact forces period 1
  /// (exact per-opcode tally); sampled mode reads the clock once per
  /// --prof-period executed instructions.
  bool hotspots = false;
  bool prof_exact = false;
  std::uint32_t prof_period = 256;
  /// KIR execution engine (--kir-exec=interp|bytecode). Modelled numbers
  /// are identical; interp is useful to compare hotspot profiles against
  /// the bytecode VM.
  KirExec kir_exec = KirExec::kBytecode;
  std::string out_dir = "results";
  std::vector<std::string> benchmarks;  // empty = all registered
  /// Fault-injection knobs; injected faults and resilience actions show
  /// up in the report's fault-event table and the metrics JSON.
  FaultOptions fault;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--fp64] [--quick] [--benchmarks=a,b,c] [--out=DIR]\n"
      "          [--power-hz=N] [--seed=N] [--repetitions=N] [--no-trace]\n"
      "          [--summary] [--hotspots] [--prof-mode=sampled|exact]\n"
      "          [--prof-period=N] [--kir-exec=interp|bytecode]\n"
      "          [--log-level=LEVEL] [--fault-seed=N]\n"
      "          [--fault-rate=P] [--fault-spec=SPEC] [--watchdog=SEC]\n"
      "\n"
      "Profiles the paper benchmarks on the modelled Exynos 5250 and writes\n"
      "profile_trace.json / profile_metrics.{json,csv} / profile_power.csv\n"
      "into DIR (default: results). Known benchmarks:\n  ",
      argv0);
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::vector<std::string> SplitCsv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, ProfOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const StatusOr<bool> fault_flag =
        fault::ParseFaultFlag(arg, &options->fault);
    if (!fault_flag.ok()) {
      std::fprintf(stderr, "malisim-prof: %s\n",
                   fault_flag.status().ToString().c_str());
      return false;
    }
    if (*fault_flag) continue;
    if (arg == "--fp64") {
      options->fp64 = true;
    } else if (arg == "--fp32") {
      options->fp64 = false;
    } else if (arg == "--quick") {
      options->quick = true;
    } else if (arg == "--no-trace") {
      options->trace = false;
    } else if (arg == "--summary") {
      options->summary = true;
    } else if (arg == "--hotspots") {
      options->hotspots = true;
    } else if (arg.rfind("--prof-mode=", 0) == 0) {
      const std::string mode = arg.substr(12);
      if (mode == "exact") {
        options->prof_exact = true;
      } else if (mode == "sampled") {
        options->prof_exact = false;
      } else {
        std::fprintf(stderr,
                     "malisim-prof: unknown --prof-mode '%s' (sampled|exact)\n",
                     mode.c_str());
        return false;
      }
    } else if (arg.rfind("--prof-period=", 0) == 0) {
      const long period = std::strtol(arg.c_str() + 14, nullptr, 10);
      if (period < 1) {
        std::fprintf(stderr, "malisim-prof: --prof-period must be >= 1\n");
        return false;
      }
      options->prof_period = static_cast<std::uint32_t>(period);
    } else if (arg.rfind("--kir-exec=", 0) == 0) {
      const std::string engine = arg.substr(11);
      if (engine == "interp") {
        options->kir_exec = KirExec::kInterp;
      } else if (engine == "bytecode") {
        options->kir_exec = KirExec::kBytecode;
      } else {
        std::fprintf(stderr,
                     "malisim-prof: unknown --kir-exec '%s' "
                     "(interp|bytecode)\n",
                     engine.c_str());
        return false;
      }
    } else if (arg.rfind("--log-level=", 0) == 0) {
      // main() ran InitLogLevelFromEnv first, so the flag wins over the env.
      if (!ApplyLogLevelFlag(arg.substr(12))) {
        std::fprintf(stderr,
                     "malisim-prof: unknown --log-level '%s' "
                     "(debug|info|warn|error|off)\n",
                     arg.c_str() + 12);
        return false;
      }
    } else if (arg.rfind("--benchmarks=", 0) == 0) {
      options->benchmarks = SplitCsv(arg.substr(13));
    } else if (arg.rfind("--out=", 0) == 0) {
      options->out_dir = arg.substr(6);
    } else if (arg.rfind("--power-hz=", 0) == 0) {
      options->power_hz = std::strtod(arg.c_str() + 11, nullptr);
      if (options->power_hz <= 0.0) {
        std::fprintf(stderr, "malisim-prof: --power-hz must be > 0\n");
        return false;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      options->seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--repetitions=", 0) == 0) {
      options->repetitions =
          static_cast<int>(std::strtol(arg.c_str() + 14, nullptr, 10));
      if (options->repetitions < 1) options->repetitions = 1;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "malisim-prof: unknown flag '%s'\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
  }
  return true;
}

int Run(const ProfOptions& options) {
  harness::ExperimentConfig config;
  config.fp64 = options.fp64;
  config.seed = options.seed;
  config.repetitions = options.repetitions;
  config.fault = options.fault;
  config.kir_exec = options.kir_exec;
  if (options.quick) config.sizes = hpc::ProblemSizes::Quick();

  obs::ObsOptions obs_options;
  obs_options.enabled = true;
  obs_options.counters = true;
  obs_options.trace = options.trace;
  obs_options.power_hz = options.power_hz;
  obs_options.host_prof = options.hotspots;
  obs_options.host_prof_exact = options.prof_exact;
  obs_options.host_prof_period = options.prof_period;
  obs::Recorder recorder(obs_options);
  config.recorder = &recorder;

  harness::ExperimentRunner runner(config);
  std::vector<std::string> names = options.benchmarks;
  if (names.empty()) names = hpc::RegisteredBenchmarks();

  const auto host_start = std::chrono::steady_clock::now();
  for (const std::string& name : names) {
    std::printf("profiling %s (%s)...\n", name.c_str(),
                options.fp64 ? "fp64" : "fp32");
    auto result = runner.RunBenchmark(name);
    if (!result.ok()) {
      std::fprintf(stderr, "malisim-prof: %s failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  // Flush contract (obs/recorder.h): all benchmarks ran to completion
  // above, so seal the recorder before any export reads it. A record
  // landing after this point would be counted and logged instead of
  // silently missing from some of the artifacts.
  recorder.Seal();

  // The exporters need the same power model the harness measured with.
  const power::PowerModel model(config.power);

  if (options.summary) {
    std::printf("\n%s", obs::SummaryReport(recorder, model).c_str());
  } else {
    std::printf("\n%s", obs::TextReport(recorder, model).c_str());
  }

  if (options.hotspots && recorder.host_prof() != nullptr) {
    const obs::HostProf& prof = *recorder.host_prof();
    const obs::HostProf::Snapshot snapshot = prof.TakeSnapshot();
    std::printf("\n%s", obs::HostProf::HotspotsTable(snapshot, wall_sec).c_str());
    std::printf(
        "host time attributed: %.1f%% of %.3f s wall "
        "(profiler self-cost ~%.2f%% of interp time, mode=%s period=%u)\n",
        100.0 * prof.AttributedFraction(wall_sec), wall_sec,
        100.0 * prof.SampleOverheadFraction(),
        options.prof_exact ? "exact" : "sampled", prof.period());
  }

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "malisim-prof: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::string base = options.out_dir + "/";

  struct Artifact {
    std::string path;
    Status status;
  };
  std::vector<Artifact> written;
  if (options.trace) {
    written.push_back(
        {base + "profile_trace.json",
         obs::WritePerfettoTrace(recorder, model, base + "profile_trace.json")});
  }
  written.push_back(
      {base + "profile_metrics.json",
       obs::WriteMetricsJson(recorder, model, base + "profile_metrics.json")});
  written.push_back(
      {base + "profile_metrics.csv",
       obs::WriteKernelMetricsCsv(recorder, base + "profile_metrics.csv")});
  const obs::PowerSampler sampler(&model, options.power_hz);
  const obs::PowerTimeline timeline =
      sampler.Render(recorder.power_segments());
  written.push_back(
      {base + "profile_power.csv",
       obs::WritePowerTimelineCsv(timeline, base + "profile_power.csv")});
  if (options.hotspots && recorder.host_prof() != nullptr) {
    const std::string path = base + "profile_hotspots.collapsed";
    const std::string text =
        obs::HostProf::Collapsed(recorder.host_prof()->TakeSnapshot());
    Status status = Status::Ok();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      status = Status(ErrorCode::kInternal, "cannot open " + path);
    } else {
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    written.push_back({path, status});
  }

  bool ok = true;
  std::printf("\nArtifacts:\n");
  for (const Artifact& a : written) {
    if (a.status.ok()) {
      std::printf("  %s\n", a.path.c_str());
    } else {
      std::fprintf(stderr, "  FAILED %s: %s\n", a.path.c_str(),
                   a.status.ToString().c_str());
      ok = false;
    }
  }
  if (options.trace && ok) {
    std::printf("\nOpen profile_trace.json in https://ui.perfetto.dev "
                "(pid 1 = modelled SoC, pid 2 = power meter).\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace malisim

int main(int argc, char** argv) {
  malisim::InitLogLevelFromEnv();
  malisim::ProfOptions options;
  if (!malisim::ParseArgs(argc, argv, &options)) return 2;
  return malisim::Run(options);
}

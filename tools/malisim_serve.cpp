// malisim-serve: fault-tolerant sim-as-a-service batch front end
// (DESIGN.md §14).
//
// Accepts a batch of jobs — a JSONL job file (--jobs) or the built-in
// deterministic load driver (--load-driver=N) — and pushes them through
// the ServeEngine: sharded bounded admission queues (backpressure sheds
// the newest arrival with a typed Overloaded status), per-rung circuit
// breakers over the degradation ladder, per-job modelled-time deadlines
// wired into the watchdog, and retry-with-backoff capped by the remaining
// deadline budget. SIGINT triggers a graceful drain: in-flight and queued
// jobs finish, new ones shed, and the final report still accounts for
// every submission.
//
// Exit codes: 0 = drained with the zero-lost-jobs invariant intact,
// 1 = invariant violated or an output file could not be written,
// 2 = bad flags or unreadable job file.
//
// Live telemetry (--telemetry-out=PATH): streams schema-versioned
// "malisim-telemetry-v1" JSONL snapshots (one per modelled-time window)
// while the run is in flight, plus an atomically-replaced Prometheus-style
// exposition at PATH.prom and tail-exemplar Perfetto traces next to the
// stream. Watch live with `malisim-top PATH`. Declarative SLOs
// (--slo-spec=) are evaluated per window with two-window burn rates;
// transitions land in the report and the JSONL stream.
//
// Usage:
//   malisim-serve [--jobs=FILE.jsonl | --load-driver=N]
//                 [--workers=N] [--shards=N] [--queue-depth=N]
//                 [--deadline=SEC] [--watchdog=SEC]
//                 [--fault-seed=N] [--fault-rate=R] [--fault-spec=SPEC]
//                 [--breaker-threshold=N] [--breaker-cooldown=N]
//                 [--seed=N] [--autotune] [--tune-cache=PATH]
//                 [--report=PATH] [--no-results] [--bench-json=PATH]
//                 [--telemetry-out=PATH] [--telemetry-window-sec=S]
//                 [--telemetry-exemplars=N] [--slo-spec=SPEC]
//                 [--log-level=LEVEL]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/status.h"
#include "common/version.h"
#include "fault/fault_plan.h"
#include "obs/bench_report.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "serve/engine.h"
#include "serve/job.h"
#include "sim/tuner.h"

namespace malisim {
namespace {

struct ServeToolOptions {
  std::string jobs_path;
  int load_driver = 200;
  std::uint64_t seed = 42;
  serve::ServeOptions engine;
  std::string tune_cache_path;
  std::string report_path;
  bool include_results = true;
  std::string bench_json_path;
  std::string telemetry_out;
  std::string slo_spec;
  obs::TelemetryOptions telemetry;
};

[[noreturn]] void Usage(const char* bad_flag) {
  std::fprintf(
      stderr,
      "unknown flag '%s'\n"
      "usage: malisim-serve [--jobs=FILE.jsonl | --load-driver=N]\n"
      "                     [--workers=N] [--shards=N] [--queue-depth=N]\n"
      "                     [--deadline=SEC] [--watchdog=SEC]\n"
      "                     [--fault-seed=N] [--fault-rate=R]\n"
      "                     [--fault-spec=SPEC] [--breaker-threshold=N]\n"
      "                     [--breaker-cooldown=N] [--seed=N] [--autotune]\n"
      "                     [--tune-cache=PATH] [--report=PATH]\n"
      "                     [--no-results] [--bench-json=PATH]\n"
      "                     [--telemetry-out=PATH]\n"
      "                     [--telemetry-window-sec=S]\n"
      "                     [--telemetry-exemplars=N] [--slo-spec=SPEC]\n"
      "                     [--log-level=LEVEL]\n",
      bad_flag);
  std::exit(2);
}

ServeToolOptions ParseArgs(int argc, char** argv) {
  ServeToolOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const StatusOr<bool> fault_flag =
        fault::ParseFaultFlag(arg, &options.engine.fault);
    if (!fault_flag.ok()) {
      std::fprintf(stderr, "%s\n", fault_flag.status().ToString().c_str());
      std::exit(2);
    }
    if (*fault_flag) continue;
    if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs_path = arg.substr(7);
    } else if (arg.rfind("--load-driver=", 0) == 0) {
      options.load_driver =
          static_cast<int>(std::strtol(arg.c_str() + 14, nullptr, 10));
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.engine.workers_per_shard =
          static_cast<int>(std::strtol(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      options.engine.shards =
          static_cast<int>(std::strtol(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      options.engine.queue_depth = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 14, nullptr, 10));
    } else if (arg.rfind("--deadline=", 0) == 0) {
      options.engine.default_deadline_sec =
          std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg.rfind("--breaker-threshold=", 0) == 0) {
      options.engine.breaker.failure_threshold =
          static_cast<int>(std::strtol(arg.c_str() + 20, nullptr, 10));
    } else if (arg.rfind("--breaker-cooldown=", 0) == 0) {
      options.engine.breaker.open_cooldown =
          static_cast<int>(std::strtol(arg.c_str() + 19, nullptr, 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--autotune") {
      options.engine.autotune = true;
    } else if (arg.rfind("--tune-cache=", 0) == 0) {
      options.tune_cache_path = arg.substr(13);
    } else if (arg.rfind("--report=", 0) == 0) {
      options.report_path = arg.substr(9);
    } else if (arg == "--no-results") {
      options.include_results = false;
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      options.bench_json_path = arg.substr(13);
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      options.telemetry_out = arg.substr(16);
    } else if (arg.rfind("--telemetry-window-sec=", 0) == 0) {
      options.telemetry.window_sec = std::strtod(arg.c_str() + 23, nullptr);
    } else if (arg.rfind("--telemetry-exemplars=", 0) == 0) {
      options.telemetry.exemplars_per_window =
          static_cast<int>(std::strtol(arg.c_str() + 22, nullptr, 10));
    } else if (arg.rfind("--slo-spec=", 0) == 0) {
      options.slo_spec = arg.substr(11);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      if (!ApplyLogLevelFlag(arg.substr(12))) {
        std::fprintf(stderr,
                     "unknown --log-level '%s' (debug|info|warn|error|off)\n",
                     arg.c_str() + 12);
        std::exit(2);
      }
    } else {
      Usage(arg.c_str());
    }
  }
  return options;
}

/// SIGINT sets a flag; the submission loop notices and begins the drain
/// from normal (non-signal) context, where mutexes are legal.
std::atomic<bool> g_interrupted{false};
void HandleSigint(int) { g_interrupted.store(true); }

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return InternalError("cannot open '" + path + "' for writing");
  out << content;
  out.flush();
  if (!out) return InternalError("short write to '" + path + "'");
  return Status::Ok();
}

Status WriteBenchRecord(const ServeToolOptions& options,
                        const serve::ServeReport& report) {
  obs::BenchReportMeta meta;
  meta.name = "malisim_serve";
  meta.git_sha = GitSha();
  StatusOr<fault::FaultPlan> plan =
      fault::FaultPlan::FromOptions(options.engine.fault);
  if (plan.ok()) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(plan->Hash()));
    meta.fault_plan_hash = buf;
  }
  meta.options = {
      {"deadline_sec", std::to_string(options.engine.default_deadline_sec)},
      {"fault_rate", std::to_string(options.engine.fault.rate)},
      {"fault_seed", std::to_string(options.engine.fault.seed)},
      {"fault_spec", options.engine.fault.spec},
      {"jobs", options.jobs_path.empty()
                   ? "load-driver:" + std::to_string(options.load_driver)
                   : options.jobs_path},
      {"queue_depth", std::to_string(options.engine.queue_depth)},
      {"seed", std::to_string(options.seed)},
      {"shards", std::to_string(options.engine.shards)},
      {"workers", std::to_string(options.engine.workers_per_shard)},
  };
  return obs::WriteBenchReport(meta, {}, {}, report.metrics,
                               options.bench_json_path);
}

int Main(int argc, char** argv) {
  InitLogLevelFromEnv();
  const ServeToolOptions options = ParseArgs(argc, argv);

  std::vector<serve::JobSpec> jobs;
  if (!options.jobs_path.empty()) {
    std::ifstream in(options.jobs_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read job file '%s'\n",
                   options.jobs_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    StatusOr<std::vector<serve::JobSpec>> parsed =
        serve::ParseJobFile(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    jobs = *std::move(parsed);
  } else {
    jobs = serve::GenerateLoad(options.load_driver, options.seed);
  }

  serve::ServeOptions engine_options = options.engine;
  sim::TuningCache tune_cache;
  if (!options.tune_cache_path.empty()) {
    tune_cache = sim::TuningCache::LoadFileOrEmpty(options.tune_cache_path);
    engine_options.tune_cache = &tune_cache;
  }

  // Telemetry plane: constructed before (destroyed after) the engine.
  obs::Recorder recorder;
  obs::FileTelemetrySink telemetry_sink;
  std::unique_ptr<obs::TelemetryPlane> telemetry;
  if (!options.slo_spec.empty() && options.telemetry_out.empty()) {
    std::fprintf(stderr, "--slo-spec requires --telemetry-out\n");
    return 2;
  }
  if (!options.telemetry_out.empty()) {
    obs::TelemetryOptions topts = options.telemetry;
    if (!options.slo_spec.empty()) {
      StatusOr<obs::SloSpec> slo = obs::SloSpec::Parse(options.slo_spec);
      if (!slo.ok()) {
        std::fprintf(stderr, "--slo-spec: %s\n",
                     slo.status().ToString().c_str());
        return 2;
      }
      topts.slo = *std::move(slo);
    }
    const Status opened = telemetry_sink.Open(options.telemetry_out);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.ToString().c_str());
      return 1;
    }
    topts.recorder = &recorder;
    telemetry = std::make_unique<obs::TelemetryPlane>(topts, &telemetry_sink);
    engine_options.telemetry = telemetry.get();
  }

  std::signal(SIGINT, HandleSigint);
  serve::ServeEngine engine(engine_options);
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  bool drained_early = false;
  for (const serve::JobSpec& job : jobs) {
    if (g_interrupted.load() && !drained_early) {
      MALI_LOG_WARN("SIGINT: draining (queued jobs finish, new ones shed)");
      engine.BeginShutdown();
      drained_early = true;
    }
    if (engine.Submit(job).ok()) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  if (g_interrupted.load() && !drained_early) engine.BeginShutdown();

  serve::ServeReport report = engine.Drain();
  std::printf("%s", report.ToText().c_str());
  std::printf("submission: %llu accepted, %llu shed at admission\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(shed));

  int exit_code = report.Consistent() ? 0 : 1;
  if (telemetry != nullptr) {
    const obs::TelemetryTotals totals = telemetry->Totals();
    std::printf(
        "telemetry: %llu window(s), %llu exemplar(s), %llu SLO breach(es)/"
        "%llu recover(ies) -> %s (+ %s)\n",
        static_cast<unsigned long long>(totals.windows),
        static_cast<unsigned long long>(totals.exemplars),
        static_cast<unsigned long long>(totals.slo_breaches),
        static_cast<unsigned long long>(totals.slo_recoveries),
        options.telemetry_out.c_str(), telemetry_sink.prom_path().c_str());
    if (const std::uint64_t late = recorder.late_records(); late > 0) {
      std::printf(
          "WARNING: %llu record(s) arrived after the recorder was sealed — "
          "exports taken at drain may be missing events "
          "(serve/obs/late_records)\n",
          static_cast<unsigned long long>(late));
    }
    if (!telemetry_sink.status().ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   telemetry_sink.status().ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.tune_cache_path.empty()) {
    const Status saved = tune_cache.SaveFile(options.tune_cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "could not save tuning cache %s: %s\n",
                   options.tune_cache_path.c_str(),
                   saved.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.report_path.empty()) {
    const Status written = WriteFile(options.report_path,
                                     report.ToJson(options.include_results));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.bench_json_path.empty()) {
    const Status written = WriteBenchRecord(options, report);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace malisim

int main(int argc, char** argv) { return malisim::Main(argc, argv); }

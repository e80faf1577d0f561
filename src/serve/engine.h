// ServeEngine: the fault-tolerant sim-as-a-service batch engine behind
// malisim-serve (DESIGN.md §14).
//
// Shape: submissions hash by job id onto one of `shards` bounded
// admission queues, each drained by its own pool of worker threads.
// Submission never blocks — a full shard sheds the newest arrival with a
// typed Overloaded status (see admission_queue.h). Each accepted job walks
// the degradation ladder (fault::RunLadder) with harness::ExecuteJobVariant
// as each rung's attempt, the per-rung circuit breakers and the job's
// modelled-seconds deadline as the walk's policy.
// Every submission — accepted or shed — ends as exactly one JobResult;
// ServeReport::Consistent() checks that invariant (zero lost jobs).
//
// Deadline semantics: a job's budget is modelled seconds, spent on
// successful run time, failed rungs' watchdog allotments and accounted
// retry backoff. Each rung gets the REMAINING budget as its watchdog and
// its retry cap, so neither a slow kernel nor a transient-fault backoff
// storm can make a job look hung. A success whose cumulative spend
// overruns the budget still reports kDeadlineExceeded — a deadline is a
// promise to the caller, not a suggestion.
//
// Determinism: a job's fault schedule depends only on (base seed, job
// id, rung), but the breakers are shared. With more than one worker the
// rung a job runs on can depend on breaker state other jobs shaped, in
// whatever order the workers finished them, so a whole report is
// reproducible run to run only with one worker or while no breaker trips
// (CI's determinism steps pass --breaker-threshold=1000000).
//
// Shared caches: all jobs share one mali::CompileCache (pure compile
// results; fault schedules are cache-warmth-independent by construction)
// and, when autotuning is on, one sim::TuningCache plus an in-process
// winner memo so each (benchmark, precision, device) tunes at most once.
//
// Shutdown: BeginShutdown() closes admission (new submissions shed) while
// queued and in-flight jobs drain; Drain() waits for the workers and
// assembles the final report. The SIGINT path in malisim-serve is exactly
// BeginShutdown + Drain.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_options.h"
#include "common/status.h"
#include "fault/breaker.h"
#include "mali/compiler_cache.h"
#include "obs/metrics.h"
#include "power/power_model.h"
#include "serve/admission_queue.h"
#include "serve/job.h"
#include "sim/tuner.h"

namespace malisim::obs {
class TelemetryPlane;
struct JobRungSpan;
}  // namespace malisim::obs

namespace malisim::serve {

struct ServeOptions {
  /// Worker threads per shard.
  int workers_per_shard = 4;
  /// Independent admission queues; jobs hash to a shard by id.
  int shards = 1;
  /// Bounded depth of each shard's queue — the backpressure knob.
  std::size_t queue_depth = 64;
  /// Modelled-seconds budget for jobs that do not carry their own
  /// deadline. 0 = unbounded.
  double default_deadline_sec = 5.0;
  /// Fault configuration. `seed` is the base the per-job schedule seeds
  /// mix from; `watchdog_sec` (when > 0) caps each rung's watchdog below
  /// the job's remaining budget.
  FaultOptions fault;
  power::PowerParams power;
  fault::BreakerConfig breaker;
  /// Tune the kOpenCLOpt rung per (benchmark, precision, device), memoized
  /// process-wide and persisted through `tune_cache` when set.
  bool autotune = false;
  sim::TunerOptions tuner;
  sim::TuningCache* tune_cache = nullptr;
  /// Share pure compile results across jobs (mali::CompileCache).
  bool compile_cache = true;
  /// Optional live telemetry plane (obs/telemetry.h). Must outlive the
  /// engine. When set, the engine feeds it at admission (watermark) and at
  /// every terminal result (sample + per-rung spans), final-flushes and
  /// seals its recorder at drain, and installs a breaker-state prober.
  obs::TelemetryPlane* telemetry = nullptr;
};

/// Everything known when the engine has drained.
struct ServeReport {
  std::uint64_t submitted = 0;
  /// Per-terminal-state counts, indexed by JobState.
  std::array<std::uint64_t, kNumJobStates> state_counts{};
  /// One entry per submission, sorted by job id.
  std::vector<JobResult> results;
  /// Final breaker states and trip counts per ladder rung.
  struct BreakerRow {
    hpc::Variant rung;
    fault::BreakerState state;
    std::uint64_t trips;
  };
  std::vector<BreakerRow> breakers;
  /// Aggregated metrics: deterministic series under "serve/", host
  /// wall-clock under "serve_host/".
  obs::MetricsSnapshot metrics;
  double host_elapsed_sec = 0.0;
  double jobs_per_host_sec = 0.0;
  mali::CompileCache::Stats compile_cache_stats;

  std::uint64_t count(JobState s) const {
    return state_counts[static_cast<std::size_t>(s)];
  }
  /// The zero-lost-jobs invariant: one result per submission, ids unique,
  /// per-state counts summing to `submitted`.
  bool Consistent() const;

  /// Human-readable summary table.
  std::string ToText() const;
  /// "malisim-serve-v1" JSON document (per-job results included when
  /// `include_results`).
  std::string ToJson(bool include_results = true) const;
};

/// The ladder's circuit breakers, one per rung, indexed by hpc::Variant.
class BreakerBoard {
 public:
  explicit BreakerBoard(const fault::BreakerConfig& config) {
    for (auto& b : breakers_) b.set_config(config);
  }
  fault::CircuitBreaker& ForVariant(hpc::Variant v) {
    return breakers_[static_cast<std::size_t>(v)];
  }

 private:
  std::array<fault::CircuitBreaker, 5> breakers_;
};

class ServeEngine {
 public:
  explicit ServeEngine(const ServeOptions& options);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Non-blocking admission. Ok = accepted (a JobResult will exist for it
  /// after Drain); Overloaded = shed, recorded immediately as a kShed
  /// result. Either way the job is accounted — Submit never loses one.
  Status Submit(const JobSpec& job);

  /// Closes admission: queued and in-flight jobs keep draining, new
  /// submissions shed. Idempotent, callable from a signal-watcher thread.
  void BeginShutdown();
  bool shutting_down() const { return shutdown_.load(); }

  /// Closes admission, waits for every worker, assembles the report.
  /// Single-use: the engine cannot accept jobs afterwards.
  ServeReport Drain();

  /// Live queue depth across shards (monitoring; racy by nature).
  std::size_t QueueDepth() const;

 private:
  struct WorkerSlot {
    std::thread thread;
    obs::LogHistogram host_latency;  // per-worker, merged at drain
    std::uint64_t jobs_run = 0;
  };

  void WorkerLoop(int shard, int slot_index);
  /// Runs one job down the ladder. When `spans` is non-null (telemetry
  /// enabled) every rung decision is appended as an exemplar span on the
  /// job's consumed-budget timeline.
  JobResult RunJob(const JobSpec& job, std::vector<obs::JobRungSpan>* spans);
  /// Memoized tuned config for the kOpenCLOpt rung; nullptr when
  /// autotuning is off or tuning failed (the paper point runs instead).
  const sim::TuningConfig* TunedConfigFor(const JobSpec& job);
  void RecordResult(JobResult result, std::vector<obs::JobRungSpan> spans = {});

  const ServeOptions options_;
  std::vector<std::unique_ptr<AdmissionQueue<JobSpec>>> queues_;
  std::vector<std::vector<WorkerSlot>> workers_;  // [shard][slot]
  BreakerBoard breakers_;
  mali::CompileCache compile_cache_;

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> submitted_{0};

  mutable std::mutex results_mu_;
  std::vector<JobResult> results_;

  std::mutex tuning_mu_;
  /// Key "benchmark|fp32|mali" -> winner (nullopt-like: missing = failed,
  /// do not retry every job).
  std::map<std::string, std::unique_ptr<sim::TuningConfig>> tuned_;

  std::chrono::steady_clock::time_point start_;
  bool drained_ = false;
};

}  // namespace malisim::serve

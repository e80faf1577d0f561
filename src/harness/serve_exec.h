// The simulated board every harness entry point runs on, and job-scoped
// execution for the serve engine (DESIGN.md §14): one benchmark variant run
// end-to-end against a fresh Board, with the job's own fault schedule,
// watchdog budget and retry cap.
//
// Isolation contract: every call stands up a fresh Benchmark and Board
// (the TuneBenchmark evaluation pattern), so jobs never share mutable
// simulator state and can run concurrently from any worker thread. The
// only shared state is the optional CompileCache, which is internally
// synchronized and never alters results or fault schedules.
//
// Determinism contract: the caller premixes the job id into
// `fault.seed`, so a job's injector decisions depend only on (plan, job),
// not on which worker ran it or what ran before — replaying a single job
// from a soak reproduces its fault schedule bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_options.h"
#include "common/status.h"
#include "cpu/a15_device.h"
#include "fault/retry.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "ocl/runtime.h"
#include "power/power_model.h"
#include "sim/device.h"
#include "sim/tuner.h"

namespace malisim::fault {
class FaultInjector;
}  // namespace malisim::fault

namespace malisim::mali {
class CompileCache;
}  // namespace malisim::mali

namespace malisim::obs {
class Recorder;
}  // namespace malisim::obs

namespace malisim::harness {

/// One simulated board: the A15 device, the OpenCL context on `device`
/// and, for the Hetero column, a co-execution context. That is the GPU
/// context itself when `device` is kHetero; otherwise `hetero_column`
/// stands up a second context. Every context gets the same SimOptions,
/// hetero ratio (negative = self-tuning), fault injector, recorder and
/// compile cache; the A15 device gets the options and the recorder. The
/// injector, recorder and cache may be null and must outlive the board.
class Board {
 public:
  Board(sim::BackendKind device, double hetero_ratio, bool hetero_column,
        const SimOptions& options, fault::FaultInjector* injector,
        obs::Recorder* recorder = nullptr,
        mali::CompileCache* compile_cache = nullptr);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  hpc::Devices& devices() { return devices_; }
  ocl::Context& gpu() { return gpu_; }
  /// The second context behind the Hetero column, or null when there is
  /// none or the GPU context serves it.
  ocl::Context* second_hetero() { return second_hetero_.get(); }

 private:
  cpu::CortexA15Device cpu_;
  ocl::Context gpu_;
  std::unique_ptr<ocl::Context> second_hetero_;
  hpc::Devices devices_;
};

struct JobExecRequest {
  std::string benchmark;
  hpc::ProblemSizes sizes;
  bool fp64 = false;
  /// Simulation seed (inputs + reference), per job.
  std::uint64_t seed = 0;
  /// Backend the gpu context dispatches to for GPU variants.
  sim::BackendKind device = sim::BackendKind::kMali;
  hpc::Variant variant = hpc::Variant::kOpenCLOpt;
  /// GPU share for the hetero backend; negative = self-tuning default.
  double hetero_ratio = -1.0;
  /// Fault configuration. `seed` must already be premixed per job;
  /// `watchdog_sec` carries the job's remaining modelled-time budget
  /// (0 = no watchdog).
  FaultOptions fault;
  /// Retry budget for this attempt (RetryPolicy.max_total_backoff_sec):
  /// the job's remaining deadline budget, so backoff can never outlive
  /// the deadline. 0 = unbounded.
  double max_total_backoff_sec = 0.0;
  /// Tuned configuration applied on the kOpenCLOpt rung (nullptr = the
  /// paper point).
  const sim::TuningConfig* tuned = nullptr;
  power::PowerParams power;
  /// Shared pure-compile cache (nullptr = compile from scratch).
  mali::CompileCache* compile_cache = nullptr;
};

struct JobExecResult {
  /// Modelled seconds of the measured region.
  double seconds = 0.0;
  /// Modelled energy over the region (power model, no meter noise — serve
  /// reports true energy per job, not a metered estimate).
  double energy_j = 0.0;
  bool validated = false;
  std::string note;
  /// Transient-retry accounting for this variant attempt.
  fault::RetryStats retry;
};

/// Runs exactly one variant of one job: one rung's attempt in the serve
/// job's ladder walk (fault::RunLadder), so the engine's breakers see every
/// per-rung outcome. Transient failures are retried inside, on this rung's
/// fresh board, within the request's backoff budget. Error statuses pass
/// through the fault taxonomy unchanged: degradable failures tell the walk
/// to try a lower rung, fatal ones terminate the job. `out->retry` is
/// filled even on failure (the walk accounts failed attempts' backoff
/// against the deadline); the measurement fields are only meaningful on Ok.
Status ExecuteJobVariant(const JobExecRequest& request, JobExecResult* out);

}  // namespace malisim::harness

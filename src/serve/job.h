// Job model for malisim-serve (DESIGN.md §14): what one unit of batch
// work is, how it arrives (a JSONL job file or the built-in load driver)
// and every terminal state a job can end in.
//
// Terminal-state contract (the zero-lost-jobs invariant the soak tests
// assert): every submitted job ends in exactly one of kOk, kDegraded,
// kShed, kDeadlineExceeded or kFailed, and the per-state counts sum to
// the number of submissions. There is no "lost" or "hung" state to end
// in — a job the engine accepted is run (possibly down the degradation
// ladder) or terminated with an explicit reason, and a job the engine
// refused is a kShed result carrying ErrorCode::kOverloaded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "sim/device.h"

namespace malisim::serve {

/// Parses a variant from its CLI spelling ("serial", "openmp", "opencl",
/// "openclopt", "hetero") or its display name ("OpenCL Opt", ...). False
/// on unknown names.
bool ParseVariant(std::string_view name, hpc::Variant* out);

/// CLI spelling of a variant ("openclopt"), the inverse of ParseVariant's
/// preferred form. Lower-case, no spaces — safe inside metric names.
std::string_view VariantKey(hpc::Variant v);

/// Canonical tenant accounting key: the empty string and "default" are the
/// same tenant. Applied at parse time, at metrics aggregation and in every
/// report, so a job file mixing `"tenant":""`, omitted tenants and
/// `"tenant":"default"` can never split one tenant's stats across buckets.
std::string NormalizeTenant(std::string_view tenant);

/// One unit of work: a benchmark run at a problem size, precision, device
/// and variant, under a seed. Ids are dense and unique per engine run —
/// the engine mixes them into the job's fault-plan seed, which is what
/// makes single-job replay from a soak bit-identical.
struct JobSpec {
  std::uint64_t id = 0;
  /// Accounting bucket for per-tenant metrics ("" = the default tenant).
  std::string tenant;
  std::string benchmark;
  hpc::ProblemSizes sizes;
  bool fp64 = false;
  std::uint64_t seed = 0;
  sim::BackendKind device = sim::BackendKind::kMali;
  hpc::Variant variant = hpc::Variant::kOpenCLOpt;
  /// GPU share for hetero execution; negative = self-tuning default.
  double hetero_ratio = -1.0;
  /// Modelled-seconds budget for the whole job (all rungs and accounted
  /// backoff). 0 = the engine default.
  double deadline_sec = 0.0;
};

/// Every way a job can end. Keep JobStateName in sync.
enum class JobState : std::uint8_t {
  kOk = 0,           // ran at the requested variant, validated
  kDegraded,         // ran and validated, but on a lower ladder rung
  kShed,             // admission control refused it (Overloaded)
  kDeadlineExceeded, // modelled budget ran out before a rung succeeded
  kFailed,           // non-degradable error (fatal taxonomy)
};
inline constexpr int kNumJobStates = 5;

std::string_view JobStateName(JobState s);

/// Terminal record for one job. Exactly one is produced per submission.
struct JobResult {
  std::uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::kFailed;
  /// What the job asked for and what actually ran (equal unless degraded;
  /// meaningless for kShed).
  hpc::Variant requested = hpc::Variant::kOpenCLOpt;
  hpc::Variant ran = hpc::Variant::kOpenCLOpt;
  /// Modelled seconds of the successful run (0 when none succeeded),
  /// and the total modelled seconds the job consumed across every rung
  /// attempt plus accounted retry backoff (what the deadline meters).
  double seconds = 0.0;
  double consumed_sec = 0.0;
  double energy_j = 0.0;
  int attempts = 0;      // variant-level attempts across rungs
  int retries = 0;       // transient retries summed over attempts
  double backoff_sec = 0.0;
  /// True when a circuit breaker skipped at least one rung for this job.
  /// Replay of such a job is not expected to be bit-identical — breaker
  /// state is load-dependent by design.
  bool breaker_rerouted = false;
  /// Status of the terminal failure (kShed/kDeadlineExceeded/kFailed);
  /// empty for successes.
  std::string error;
  std::string note;
};

/// Parses one JSONL job line:
///   {"benchmark":"spmv","variant":"openclopt","device":"mali",
///    "fp64":false,"seed":7,"tenant":"batch-a","deadline_sec":2.5,
///    "sizes":"quick","hetero_ratio":0.5}
/// Only "benchmark" is required. "sizes" is a preset name ("quick" |
/// "full"). The caller assigns `id`. InvalidArgument on malformed JSON or
/// unknown enum spellings.
StatusOr<JobSpec> ParseJobLine(std::string_view line);

/// Parses a whole JSONL document (one job per non-empty, non-'#' line),
/// assigning dense ids from `first_id`. Reports the first bad line with
/// its 1-based number.
StatusOr<std::vector<JobSpec>> ParseJobFile(std::string_view text,
                                            std::uint64_t first_id = 0);

/// Built-in load driver: `count` jobs, same `count` and `seed`, same jobs,
/// forever. Job i runs benchmark i mod 9 (registry order) at quick problem
/// sizes on the Mali backend, with its variant taken from a six-slot cycle
/// over four variants (OpenCL-opt three times, OpenCL, Hetero, OpenMP; no
/// Serial) and fp64 exactly when i % 5 == 3, whatever the benchmark. So
/// the fp64 amcd erratum cell comes up too: serve must handle jobs that
/// can only finish by degrading, which is the point of the ladder.
std::vector<JobSpec> GenerateLoad(int count, std::uint64_t seed);

}  // namespace malisim::serve

// Harness adapter between sim::Tuner and the nine paper benchmarks.
//
// TuneBenchmark stands up one complete, self-contained evaluation pipeline
// per candidate configuration: a fresh Benchmark instance (Setup included)
// and a fresh harness::Board, so candidate evaluations are thread-safe
// under the tuner's fan-out and bit-identical for any host thread count. Energy comes straight from the power model
// over the candidate's activity profile — no meter noise enters the search,
// matching the §IV-D observation that the modelled deviations are
// negligible.
//
// Candidates that fail to build (the amcd FP64 erratum), exhaust modelled
// resources, hit injected faults, or produce an invalid result
// (!outcome.validated) are reported as skipped to the tuner — they are
// counted, never winners, and never enter the cache.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_options.h"
#include "common/status.h"
#include "hpc/problem_sizes.h"
#include "power/power_model.h"
#include "sim/device.h"
#include "sim/tuner.h"

namespace malisim::harness {

struct TuningRequest {
  /// Registry name of the benchmark to tune ("vecop", "spmv", ...).
  std::string benchmark;
  hpc::ProblemSizes sizes;
  bool fp64 = false;
  /// Benchmark Setup seed (input data), independent of the search seed in
  /// `tuner.seed`.
  std::uint64_t seed = 42;
  /// Backend the candidates dispatch to. kMali reproduces the paper's
  /// target; the DeviceCaps of this backend enter the cache key. On
  /// kHetero the PR 5 split ratio folds into the search: the space gains
  /// a "hetero_permille" GPU-share axis {0,250,500,750,1000} applied per
  /// candidate.
  sim::BackendKind device = sim::BackendKind::kMali;
  power::PowerParams power;
  /// Search options: objective, search seed, candidate fan-out threads,
  /// exhaustive limit, hill-climb budget.
  sim::TunerOptions tuner;
  /// Fault-injection knobs applied to every candidate evaluation. The
  /// fault schedule is keyed per candidate (benchmark + config key), so it
  /// is independent of evaluation order and thread count.
  FaultOptions fault;
  /// Optional persistent winner cache. A hit returns the cached winner
  /// without evaluating anything; after a successful search the winner is
  /// inserted. Never written on failed searches.
  sim::TuningCache* cache = nullptr;
};

struct TuningReport {
  sim::TunerResult result;
  /// The paper's hand-picked §III configuration for this benchmark — what
  /// the conformance battery checks the winner against.
  sim::TuningConfig paper_config;
  /// Content address of this tuning problem in the cache.
  std::string cache_key;
};

/// Content fingerprint of one tuning problem: hex FNV-1a over the
/// benchmark's tuned-kernel text at the paper configuration (the code-gen
/// identity), every problem-size field and the precision. Any change to
/// the kernel builders, the sizes or the precision invalidates cached
/// winners.
StatusOr<std::string> TuningFingerprint(const std::string& benchmark,
                                        const hpc::ProblemSizes& sizes,
                                        bool fp64, std::uint64_t seed);

/// Tunes one benchmark end to end: space declaration, cache lookup,
/// search, cache insert. NotFound for an unknown benchmark name or a
/// search in which every candidate failed; Unimplemented when the
/// benchmark declares no tuning space.
StatusOr<TuningReport> TuneBenchmark(const TuningRequest& request);

}  // namespace malisim::harness

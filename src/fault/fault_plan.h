// FaultPlan: the declarative half of the fault-injection subsystem.
//
// A plan says *what can go wrong and how often*: per-site trip
// probabilities for the injectable faults (transient enqueue/map/unmap
// failures, allocation failures, probabilistic build failures,
// register-budget squeezes, thermal-throttle events, power-meter sample
// dropouts) plus the two always-on quirks the paper documents (the amcd
// FP64 compiler erratum and the per-thread register budget) and the retry
// policy the resilience layer applies to transient errors.
//
// Determinism contract (DESIGN.md §8): a plan never draws from a shared
// RNG stream. FaultInjector derives every decision from a counter-free
// hash of (plan seed, site, site-local sequence number), and the harness
// instantiates one injector per (benchmark, precision) cell with a seed
// keyed by the cell name — so decisions are independent of which host
// thread runs the cell and identical (sim seed, fault seed, threads)
// triples replay bit-identically.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/sim_options.h"
#include "common/status.h"

namespace malisim::fault {

/// Injection sites threaded through the stack. Keep FaultSiteName() and
/// FaultSiteFromName() in sync when extending.
enum class FaultSite : std::uint8_t {
  kAlloc = 0,    // clCreateBuffer -> CL_MEM_OBJECT_ALLOCATION_FAILURE
  kWrite,        // clEnqueueWriteBuffer (transient)
  kRead,         // clEnqueueReadBuffer (transient)
  kCopy,         // clEnqueueCopyBuffer (transient)
  kFill,         // clEnqueueFillBuffer (transient)
  kMap,          // clEnqueueMapBuffer -> CL_MAP_FAILURE (transient)
  kUnmap,        // clEnqueueUnmapMemObject (transient)
  kNDRange,      // clEnqueueNDRangeKernel submission (transient)
  kBuild,        // clBuildProgram: probabilistic compiler failure
  kRegSqueeze,   // compiler: register budget squeezed for one kernel
  kThrottle,     // device: thermal-throttle/DVFS event scales a launch
  kMeterDropout, // virtual WT230: one sample dropped
};
inline constexpr int kNumFaultSites = 12;

/// Short lower-case site name used by --fault-spec ("alloc", "map", ...).
std::string_view FaultSiteName(FaultSite site);

/// Inverse of FaultSiteName; false on unknown names.
bool FaultSiteFromName(std::string_view name, FaultSite* out);

/// Bounded exponential backoff for transient errors (fault/retry.h).
struct RetryPolicy {
  int max_attempts = 3;            // total tries, not extra retries
  double base_backoff_sec = 1e-3;  // host-side wait before the 2nd try
  double multiplier = 2.0;
  /// Total accounted backoff budget across all attempts; a retry whose
  /// backoff would push the accumulated total past this bound is not
  /// taken (the last failure is returned instead). 0 = unbounded. The
  /// serve layer sets this to the job's remaining deadline budget so a
  /// slow backoff sequence can never outlive the watchdog and read as a
  /// hung job.
  double max_total_backoff_sec = 0.0;
};

struct FaultPlan {
  /// Seed of every decision stream derived from this plan.
  std::uint64_t seed = 0;

  /// Per-site trip probability in [0, 1]. All zero = no injection.
  std::array<double, kNumFaultSites> rates{};

  /// Always-on quirks generalized from the previously hard-coded
  /// behaviours. Both default to firing deterministically whenever their
  /// structural condition holds — that is the paper's board.
  bool fp64_erratum = true;  // amcd FP64 special-in-divergent-loop erratum
  bool reg_budget = true;    // per-thread register budget enforcement

  /// A kRegSqueeze trip multiplies the register budget by this factor for
  /// one kernel compile (a pessimistic-allocator event).
  double reg_squeeze_factor = 0.5;
  /// A kThrottle trip multiplies one launch's modelled seconds by this
  /// factor (DVFS drop: same work at a lower clock).
  double throttle_time_factor = 1.25;

  RetryPolicy retry;

  double rate(FaultSite site) const {
    return rates[static_cast<int>(site)];
  }
  void set_rate(FaultSite site, double r) {
    rates[static_cast<int>(site)] = r;
  }

  /// True when any injectable site can fire.
  bool InjectionActive() const;

  /// Stable FNV-1a digest of everything that shapes the fault schedule:
  /// seed, per-site rates, quirk switches, squeeze/throttle factors and
  /// the retry policy. Two runs with equal hashes face identical fault
  /// behaviour, which is what makes their BENCH records comparable —
  /// malisim-bench warns when the hashes differ.
  std::uint64_t Hash() const;

  /// Applies a "site=rate[,site=rate...]" spec ("all" = every site).
  /// InvalidArgument on unknown sites or rates outside [0, 1].
  Status ApplySpec(std::string_view spec);

  /// Builds a plan from the plain-data options: uniform `rate` first,
  /// then `spec` overrides. InvalidArgument on a malformed spec/rate.
  static StatusOr<FaultPlan> FromOptions(const FaultOptions& options);
};

/// Parses `arg` into `options` when it is one of the four fault flags
/// (--fault-seed=N, --fault-rate=R, --fault-spec=SPEC, --watchdog=SEC).
/// Returns true when it consumed the flag and false for any other flag;
/// InvalidArgument when a seed is not wholly an unsigned integer or a
/// rate/watchdog not wholly a finite number. Ranges are FromOptions' job.
StatusOr<bool> ParseFaultFlag(std::string_view arg, FaultOptions* options);

}  // namespace malisim::fault

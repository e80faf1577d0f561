// Benchmark framework: the nine paper benchmarks, each in the four versions
// of §IV-B (Serial / OpenMP on the A15 model, OpenCL / OpenCL Opt on the
// Mali model), with functional validation against host references.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stats.h"
#include "cpu/a15_device.h"
#include "kir/exec_types.h"
#include "hpc/problem_sizes.h"
#include "ocl/runtime.h"
#include "power/profile.h"
#include "sim/tuner.h"

namespace malisim::hpc {

/// The four paper versions plus kHetero: the optimized OpenCL version
/// co-executed across the Mali and both A15 cores by the sim::Device hetero
/// backend. Benchmarks themselves only implement the four paper versions;
/// Benchmark::RunVariant resolves kHetero onto the optimized path against
/// the hetero-backend context.
enum class Variant : std::uint8_t {
  kSerial,
  kOpenMP,
  kOpenCL,
  kOpenCLOpt,
  kHetero
};
/// The paper's four versions (§IV-B), the default sweep.
inline constexpr Variant kAllVariants[] = {Variant::kSerial, Variant::kOpenMP,
                                           Variant::kOpenCL,
                                           Variant::kOpenCLOpt};
/// The four versions plus the co-execution column.
inline constexpr Variant kAllVariantsWithHetero[] = {
    Variant::kSerial, Variant::kOpenMP, Variant::kOpenCL, Variant::kOpenCLOpt,
    Variant::kHetero};

std::string_view VariantName(Variant v);

/// Degradation-ladder order, most- to least-ambitious (DESIGN.md §8). The
/// co-execution rung sits on top: losing a device degrades to the Mali-only
/// optimized version, then down the paper ladder to Serial.
inline constexpr Variant kDegradationLadder[] = {
    Variant::kHetero, Variant::kOpenCLOpt, Variant::kOpenCL, Variant::kOpenMP,
    Variant::kSerial};

/// The ladder from `v` down to Serial, `v` included.
inline std::span<const Variant> LadderFrom(Variant v) {
  const std::span<const Variant> ladder(kDegradationLadder);
  return ladder.subspan(std::find(ladder.begin(), ladder.end(), v) -
                        ladder.begin());
}

/// Devices a benchmark runs against. The harness owns them; reusing one
/// CPU/GPU pair across variants matches the single-board methodology.
/// `hetero` (optional) is a context whose backend co-executes each NDRange
/// across both devices; kHetero is unavailable while it is null.
struct Devices {
  cpu::CortexA15Device* cpu = nullptr;
  ocl::Context* gpu = nullptr;
  ocl::Context* hetero = nullptr;
};

/// Result of running one variant once.
struct RunOutcome {
  /// Modelled time of the measured region (parallel/kernel region only,
  /// §IV-D: initialization and finalization are excluded).
  double seconds = 0.0;
  /// Activity over the measured region, for the power model.
  power::ActivityProfile profile;
  /// Functional execution counts (dynamic op histogram, memory traffic,
  /// atomics, imbalance) aggregated over the region's kernel launches.
  kir::WorkGroupRun run;
  /// Functional validation against the host reference.
  bool validated = false;
  double max_rel_error = 0.0;
  /// Free-form annotation (e.g. "CL_OUT_OF_RESOURCES: fell back to vec2").
  std::string note;
  StatRegistry stats;
};

class Benchmark {
 public:
  virtual ~Benchmark() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Generates inputs and the double-precision host reference for the given
  /// arithmetic precision. Deterministic in `seed`.
  virtual Status Setup(bool fp64, std::uint64_t seed) = 0;

  /// Runs one of the four paper versions. Requires Setup. OpenCL Opt is
  /// the optimized kernel at PaperOptConfig() — the code RunTuned runs —
  /// plus, for nbody and 2dcon, a kernel ladder onto a milder kernel (see
  /// RunPaperOpt). GPU variants may fail with BuildFailure (amcd FP64
  /// erratum) — the harness reports those as the paper does (missing bars
  /// in Fig. 2b).
  StatusOr<RunOutcome> Run(Variant variant, Devices& devices);

  /// Runs any variant, including the kHetero pseudo-variant, which executes
  /// the optimized OpenCL version against devices.hetero (FailedPrecondition
  /// while that context is absent). The four paper versions pass through to
  /// Run() unchanged.
  StatusOr<RunOutcome> RunVariant(Variant variant, Devices& devices);

  // ---- §III tuning surface (sim::Tuner clients) ----

  /// Declarative search space of the optimized OpenCL version's knobs
  /// (work-group size, vector width, unroll factor, buffer strategy,
  /// kernel flavor).
  virtual sim::TuningSpace TunableSpace() const = 0;

  /// The paper's hand-picked §III operating point inside TunableSpace():
  /// the OpenCL Opt column of the figures. The tuner conformance battery
  /// checks the searched winner matches or beats it under both time and
  /// energy objectives.
  virtual sim::TuningConfig PaperOptConfig() const = 0;

  /// Runs the optimized OpenCL version at `config` against devices.gpu,
  /// once: no kernel ladder and no kernel-level retries, so a kernel over
  /// the register budget fails and the tuner skips that candidate.
  /// Requires Setup.
  StatusOr<RunOutcome> RunTuned(const sim::TuningConfig& config,
                                Devices& devices);

  /// Canonical KIR text of the kernel(s) RunTuned would launch at
  /// `config` — the content the tuning cache fingerprints. Requires Setup
  /// (kernels depend on precision and problem size).
  virtual StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const = 0;

 protected:
  /// Serial (threads == 1) or OpenMP (threads == 2) on devices.cpu.
  virtual StatusOr<RunOutcome> RunCpuVariant(Devices& devices,
                                             int threads) = 0;

  /// The benchmark's one GPU run body, against devices.gpu: the naive
  /// OpenCL version when `config` is null (driver-chosen work-group size),
  /// otherwise the optimized kernel at that point of TunableSpace().
  virtual StatusOr<RunOutcome> RunGpuVariant(
      Devices& devices, const sim::TuningConfig* config) = 0;

  /// The OpenCL Opt column: RunGpuVariant at PaperOptConfig(). nbody and
  /// 2dcon override it to fall back to a milder kernel when the paper's
  /// does not fit the FP64 register budget (paper §V-A).
  virtual StatusOr<RunOutcome> RunPaperOpt(Devices& devices);

  bool fp64_ = false;
  std::uint64_t seed_ = 0;
};

/// Benchmark names in the paper's figure order.
std::vector<std::string> RegisteredBenchmarks();

/// Factory; returns nullptr for unknown names.
std::unique_ptr<Benchmark> CreateBenchmark(const std::string& name,
                                           const ProblemSizes& sizes = {});

}  // namespace malisim::hpc

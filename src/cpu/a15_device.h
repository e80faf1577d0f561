// Cortex-A15 device model: executes KIR programs on 1..2 modelled cores and
// produces modelled time, utilization and DRAM traffic.
//
// The paper's Serial version corresponds to Run(..., num_threads=1) and the
// OpenMP version to num_threads=2: work-groups are distributed in contiguous
// blocks (OpenMP schedule(static)) and a fork/join overhead is charged per
// parallel region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_options.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "cpu/a15_params.h"
#include "kir/exec_types.h"
#include "kir/interp.h"
#include "kir/program.h"
#include "power/profile.h"
#include "sim/device.h"
#include "sim/memory_system.h"

namespace malisim::obs {
class Recorder;
}  // namespace malisim::obs

namespace malisim::cpu {

/// One Run(): modelled wall time of the parallel region, the activity
/// profile covering it, counts merged over all cores, and per-core cycles
/// and miss counts.
using CpuRunResult = sim::DeviceRunResult;

class CortexA15Device : public sim::Device {
 public:
  explicit CortexA15Device(const A15TimingParams& timing = A15TimingParams(),
                           const A15MemoryConfig& memory = A15MemoryConfig());

  /// Executes the config's active group sub-range (the full NDRange by
  /// default) on `num_threads` cores (1 or 2 on the Exynos 5250) and models
  /// the elapsed time. Caches stay warm across calls; use FlushCaches() to
  /// model a cold start.
  StatusOr<CpuRunResult> Run(const kir::Program& program,
                             const kir::LaunchConfig& config,
                             kir::Bindings bindings, int num_threads);

  // --- sim::Device ------------------------------------------------------
  const sim::DeviceCaps& caps() const override { return caps_; }
  /// The uniform backend entry point: runs `kernel.source` on all modelled
  /// A15 cores (the OpenMP configuration). `kernel.compiled` is ignored —
  /// the CPU path interprets KIR directly.
  StatusOr<sim::DeviceRunResult> RunKernel(
      const sim::KernelHandle& kernel, const kir::LaunchConfig& config,
      kir::Bindings bindings) override;
  void FlushCaches() override { hierarchy_.Flush(); }

  /// Host-side execution options; work-groups run through the same
  /// kir::RunWorkGroups skeleton as on the Mali model (see
  /// MaliT604Device::set_sim_options for the determinism contract).
  /// `num_threads` above selects the *modelled* A15 core count;
  /// SimOptions::threads selects host workers and never changes modelled
  /// results.
  void set_sim_options(const SimOptions& options) override {
    options_ = options;
  }
  const SimOptions& sim_options() const { return options_; }

  /// Attaches an observability recorder (nullptr detaches); see
  /// MaliT604Device::set_recorder for the read-only contract.
  void set_recorder(obs::Recorder* recorder) override {
    recorder_ = recorder;
  }

  /// Execution-scope tag stamped onto emitted KernelRecords (see
  /// sim::Device::set_record_scope).
  void set_record_scope(std::string_view scope) override {
    record_scope_ = std::string(scope);
  }

  static constexpr int kMaxCores = power::kNumA15Cores;

 private:
  A15TimingParams timing_;
  sim::DeviceCaps caps_;
  sim::MemoryHierarchy hierarchy_;
  sim::DramModel dram_;
  SimOptions options_;
  obs::Recorder* recorder_ = nullptr;
  std::string record_scope_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace malisim::cpu

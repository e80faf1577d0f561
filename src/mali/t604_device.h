// Mali-T604 device model: executes compiled KIR kernels over an NDRange,
// models elapsed time from tri-pipe occupancy, job-manager dispatch, cache
// behaviour, occupancy-dependent latency hiding and atomic serialization,
// and reports the activity profile for the power model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_options.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "kir/exec_types.h"
#include "kir/interp.h"
#include "kir/program.h"
#include "mali/compiler.h"
#include "mali/t604_params.h"
#include "power/profile.h"
#include "sim/device.h"
#include "sim/memory_system.h"

namespace malisim::obs {
class Recorder;
}  // namespace malisim::obs

namespace malisim::fault {
class FaultInjector;
}  // namespace malisim::fault

namespace malisim::mali {

/// One Run(): modelled seconds including driver launch overhead, the
/// activity profile (CPU cores idle, GPU on), counts merged over all shader
/// cores, and per-core cycles and miss counts.
using GpuRunResult = sim::DeviceRunResult;

class MaliT604Device : public sim::Device {
 public:
  explicit MaliT604Device(const MaliTimingParams& timing = MaliTimingParams(),
                          const MaliMemoryConfig& memory = MaliMemoryConfig());

  /// Executes the kernel over the config's active group sub-range (the
  /// full NDRange by default). Work-groups are distributed round-robin
  /// across shader cores by the Job Manager model. Fails with
  /// ResourceExhausted (CL_OUT_OF_RESOURCES) when the compiled kernel
  /// exceeded the per-thread register budget.
  StatusOr<GpuRunResult> Run(const CompiledKernel& kernel,
                             const kir::LaunchConfig& config,
                             kir::Bindings bindings);

  // --- sim::Device ------------------------------------------------------
  const sim::DeviceCaps& caps() const override { return caps_; }
  /// The uniform backend entry point: `kernel.compiled` must be the
  /// mali::CompiledKernel* the tinycl build produced.
  StatusOr<sim::DeviceRunResult> RunKernel(
      const sim::KernelHandle& kernel, const kir::LaunchConfig& config,
      kir::Bindings bindings) override;
  void FlushCaches() override { hierarchy_.Flush(); }

  const MaliTimingParams& timing() const { return timing_; }

  /// Host-side execution options. Work-groups run through
  /// kir::RunWorkGroups: with threads == 1 (default) it is the same
  /// pipeline run inline, with no pool, each core's accesses going straight
  /// into the cache hierarchy. With threads > 1 the functional phase runs
  /// concurrently on a pool and the recorded memory-event streams are
  /// replayed into the caches in that same canonical order, so modelled
  /// cycles/power/energy stay bit-identical. Host threads never change the
  /// four modelled shader cores.
  void set_sim_options(const SimOptions& options) override {
    options_ = options;
  }
  const SimOptions& sim_options() const { return options_; }

  /// Attaches an observability recorder (nullptr detaches). When attached,
  /// each Run() appends a KernelRecord with per-core counters and the
  /// interpreter's per-opcode tally. Strictly read-only with respect to the
  /// simulation: modelled seconds/power never depend on the recorder.
  void set_recorder(obs::Recorder* recorder) override {
    recorder_ = recorder;
  }

  /// Attaches a fault injector (nullptr detaches). The device consults it
  /// once per Run() for a modelled thermal-throttle/DVFS event that scales
  /// the launch's modelled seconds. The decision is taken on the serial
  /// launch path, so it is invariant under the host thread count.
  void set_fault_injector(fault::FaultInjector* injector) override {
    fault_injector_ = injector;
  }

  /// Execution-scope tag stamped onto emitted KernelRecords (see
  /// sim::Device::set_record_scope).
  void set_record_scope(std::string_view scope) override {
    record_scope_ = std::string(scope);
  }

  /// The §III-A work-group-size heuristic the driver applies when the host
  /// passes local_size = NULL: a modest power-of-two divisor of the global
  /// size, bounded by `budget` (callers shrink the budget per dimension so
  /// the product never exceeds it). It deliberately mirrors the paper's
  /// observation that "the driver is not always capable of doing a good
  /// selection" — it never picks more than 64 work-items total and so
  /// over-fragments large launches.
  static std::uint64_t DriverPickLocalSize(std::uint64_t global_size,
                                           std::uint64_t budget = 64);

 private:
  MaliTimingParams timing_;
  sim::DeviceCaps caps_;
  sim::MemoryHierarchy hierarchy_;
  sim::DramModel dram_;
  SimOptions options_;
  obs::Recorder* recorder_ = nullptr;
  fault::FaultInjector* fault_injector_ = nullptr;
  std::string record_scope_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace malisim::mali

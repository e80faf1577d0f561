#include "mali/t604_device.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "fault/injector.h"
#include "obs/recorder.h"

namespace malisim::mali {
namespace {

constexpr std::uint64_t kScratchSimBase = 0x7e00'0000'0000ULL;
constexpr std::uint64_t kScratchStride = 16ULL << 20;

/// Shader-core sink that also feeds the device-wide atomic contention
/// tracker.
class ShaderCoreSink final : public sim::CoreSink {
 public:
  ShaderCoreSink(sim::MemoryHierarchy* hierarchy, std::uint32_t core,
                 std::unordered_map<std::uint64_t, std::uint64_t>* atomic_lines)
      : CoreSink(hierarchy, core), atomic_lines_(atomic_lines) {}

  void OnAtomic(std::uint64_t addr, std::uint32_t bytes) override {
    CoreSink::OnAtomic(addr, bytes);
    // Contention is only meaningful for addresses shared across work-groups;
    // __local privatized bins (scratch range) never contend between the
    // groups that reuse the same per-core scratch over time.
    if (addr < kScratchSimBase) ++(*atomic_lines_)[addr / 64];
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t>* atomic_lines_;
};

struct PipeSlots {
  double arith = 0.0;
  double ls = 0.0;
};

PipeSlots CountSlots(const MaliTimingParams& t, const kir::OpHistogram& ops) {
  // Compensated sums: histogram entries span many orders of magnitude
  // (billions of cheap slots next to a handful of expensive ones), and the
  // totals feed straight into the cycle/energy model.
  KahanSum arith;
  KahanSum ls;
  ops.ForEach([&](kir::OpClass c, kir::ScalarType st, std::uint8_t lanes,
                  std::uint64_t n) {
    const double bytes = static_cast<double>(lanes) * kir::ScalarBytes(st);
    const double chunks = std::max(1.0, std::ceil(bytes / t.pipe_width_bytes));
    const bool f64 = st == kir::ScalarType::kF64;
    const double dn = static_cast<double>(n);
    switch (c) {
      case kir::OpClass::kArithSimple:
        arith += dn * chunks * t.slots_arith * (f64 ? t.f64_chunk_factor : 1.0);
        break;
      case kir::OpClass::kArithMul:
        arith += dn * chunks * t.slots_mul * (f64 ? t.f64_chunk_factor : 1.0);
        break;
      case kir::OpClass::kArithSpecial: {
        double mult = t.slots_special_int;
        if (st == kir::ScalarType::kF32) mult = t.slots_special_f32;
        if (f64) mult = t.slots_special_f64;
        arith += dn * chunks * mult;
        break;
      }
      case kir::OpClass::kBroadcast:
        arith += dn * t.slots_broadcast;
        break;
      case kir::OpClass::kControl:
        arith += dn * t.slots_control;
        break;
      case kir::OpClass::kLoad:
      case kir::OpClass::kStore:
        ls += dn * std::max(t.slots_ls_min,
                            std::ceil(bytes / t.ls_bytes_per_slot));
        break;
      case kir::OpClass::kAtomic:
        ls += dn * t.slots_atomic;
        break;
      case kir::OpClass::kBarrier:
        // Charged separately per work-group crossing.
        break;
      case kir::OpClass::kNumClasses:
        break;
    }
  });
  return {arith.value(), ls.value()};
}

}  // namespace

MaliT604Device::MaliT604Device(const MaliTimingParams& timing,
                               const MaliMemoryConfig& memory)
    : timing_(timing),
      hierarchy_(sim::HierarchyConfig{/*has_l1=*/true, timing.num_cores,
                                      memory.l1, memory.l2}),
      dram_(memory.dram) {
  caps_.name = "Mali-T604 (modelled)";
  caps_.kind = sim::BackendKind::kMali;
  caps_.compute_units = timing_.num_cores;
  caps_.max_work_group_size = 256;  // CL_DEVICE_MAX_WORK_GROUP_SIZE
  caps_.fp64 = true;  // OpenCL Full Profile (the paper's premise)
  caps_.clock_hz = timing_.clock_hz;
  caps_.unified_memory = true;  // Exynos 5250: one DRAM for CPU and GPU
  caps_.throughput_hint = timing_.clock_hz *
                          static_cast<double>(timing_.num_cores) *
                          timing_.arith_pipes_per_core;
}

StatusOr<sim::DeviceRunResult> MaliT604Device::RunKernel(
    const sim::KernelHandle& kernel, const kir::LaunchConfig& config,
    kir::Bindings bindings) {
  if (kernel.compiled == nullptr) {
    return InvalidArgumentError(
        "mali-t604: RunKernel needs the compiled kernel handle");
  }
  return Run(*static_cast<const CompiledKernel*>(kernel.compiled), config,
             std::move(bindings));
}

std::uint64_t MaliT604Device::DriverPickLocalSize(std::uint64_t global_size,
                                                  std::uint64_t budget) {
  // Largest power-of-two divisor of the global size within the budget.
  std::uint64_t pick = 1;
  while (pick * 2 <= budget && global_size % (pick * 2) == 0) pick *= 2;
  return pick;
}

StatusOr<GpuRunResult> MaliT604Device::Run(const CompiledKernel& kernel,
                                           const kir::LaunchConfig& config,
                                           kir::Bindings bindings) {
  MALI_CHECK(kernel.program != nullptr);
  if (kernel.exceeds_resources) {
    MALI_LOG_WARN("mali: kernel '%s' exceeds the register budget "
                  "(%u bytes/work-item, budget %u) -> CL_OUT_OF_RESOURCES",
                  kernel.program->name.c_str(), kernel.live_reg_bytes,
                  timing_.max_thread_reg_bytes);
    return ResourceExhaustedError(
        "CL_OUT_OF_RESOURCES: kernel '" + kernel.program->name + "' needs " +
        std::to_string(kernel.live_reg_bytes) +
        " bytes of registers per work-item (budget " +
        std::to_string(timing_.max_thread_reg_bytes) + ")");
  }
  hierarchy_.ResetStats();
  dram_.ResetStats();

  const kir::Program& program = *kernel.program;
  const std::uint32_t cores = timing_.num_cores;
  const std::uint64_t active_groups = config.active_groups();

  GpuRunResult result;
  obs::HostProf* host_prof =
      recorder_ != nullptr ? recorder_->host_prof() : nullptr;
  const bool recording = recorder_ != nullptr && recorder_->counters_enabled();
  kir::GroupLaunch launch;
  launch.program = &program;
  launch.config = config;
  launch.bindings = &bindings;
  launch.options = options_;
  // Kernels built through tinycl carry bytecode already; direct
  // CompileForMali-era callers that predate the field get it compiled.
  launch.bytecode = kernel.bytecode;
  launch.scratch_base = kScratchSimBase;
  launch.scratch_stride = kScratchStride;
  launch.tally_opcodes = recording;
  // Phase 1 — functional execution + cache simulation. Job Manager:
  // round-robin distribution across shader cores, over the launch's active
  // group sub-range (the whole grid unless a co-execution backend split it).
  std::unordered_map<std::uint64_t, std::uint64_t> atomic_lines;
  std::vector<ShaderCoreSink> sinks;
  sinks.reserve(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    sinks.emplace_back(&hierarchy_, c, &atomic_lines);
    launch.cores.push_back(
        {config.group_begin + c,
         c < active_groups ? (active_groups - c + cores - 1) / cores : 0,
         cores, &sinks[c]});
  }
  std::vector<kir::CoreRun> agg;
  MALI_RETURN_IF_ERROR(
      obs::RunWorkGroupsProfiled(host_prof, &launch, &pool_, &agg));

  // Phase 2 — timing model over the per-core aggregates.
  obs::HostProf::PhaseSpan merge_span(host_prof, obs::HostPhase::kMerge);
  double core_sec_max = 0.0;
  double busy_sec[power::kNumMaliCores] = {};
  std::vector<obs::CoreKernelCounters> core_counters(recording ? cores : 0);

  // Latency hiding from occupancy: resident threads overlap misses. The
  // resident count is limited by the register file (compiler) AND by how
  // many work-items the launch actually puts on a core (§III-A: "the
  // global work size must be in the order of several thousands").
  const double items_per_core =
      static_cast<double>(config.active_work_items()) / cores;
  const double resident =
      std::min(static_cast<double>(kernel.threads_per_core), items_per_core);
  const double hiding = std::max(
      1.0, std::min(timing_.latency_hiding_cap,
                    resident / timing_.threads_per_mlp));

  for (std::uint32_t c = 0; c < cores; ++c) {
    const kir::WorkGroupRun& core_run = agg[c].run;
    const std::uint64_t groups_on_core = agg[c].groups;
    const std::uint64_t core_l1_misses = sinks[c].l1_misses;
    const std::uint64_t core_l2_misses = sinks[c].l2_misses;

    const PipeSlots slots = CountSlots(timing_, core_run.ops);
    // Intra-group load imbalance stretches issue time: the Job Manager
    // retires a work-group only when its heaviest work-item finishes.
    const double imbalance = core_run.imbalance_factor();
    // The qualifier scheduling bonus applies to both pipes: aliasing
    // guarantees (restrict) are what let the compiler reorder across
    // memory operations.
    const double arith_cycles = slots.arith * kernel.sched_factor *
                                imbalance / timing_.arith_pipes_per_core;
    const double ls_cycles =
        (slots.ls + static_cast<double>(core_l1_misses) *
                        timing_.ls_l1_miss_replay_slots) *
        kernel.sched_factor * imbalance;
    const double issue_cycles = std::max(arith_cycles, ls_cycles);
    const double dispatch_cycles =
        static_cast<double>(groups_on_core) * timing_.wg_dispatch_cycles;
    const double barrier_cycles =
        static_cast<double>(core_run.barriers_crossed) * timing_.barrier_cycles;

    const double l2_hits =
        static_cast<double>(core_l1_misses - core_l2_misses);
    const double stall_sec =
        (l2_hits * timing_.l2_hit_latency_sec +
         static_cast<double>(core_l2_misses) * timing_.dram_latency_sec) /
        hiding;

    const double cycles = issue_cycles + dispatch_cycles + barrier_cycles;
    const double core_sec = cycles / timing_.clock_hz + stall_sec;
    // Power-relevant utilization: raw pipe activity. Imbalance waits,
    // dispatch gaps and memory stalls clock-gate the pipes.
    busy_sec[c] = std::max(slots.arith * kernel.sched_factor /
                               timing_.arith_pipes_per_core,
                           slots.ls) /
                  timing_.clock_hz;
    core_sec_max = std::max(core_sec_max, core_sec);

    if (recording) {
      obs::CoreKernelCounters& cc = core_counters[c];
      cc.groups = groups_on_core;
      cc.l1_misses = core_l1_misses;
      cc.l2_misses = core_l2_misses;
      cc.arith_cycles = arith_cycles;
      cc.ls_cycles = ls_cycles;
      cc.dispatch_cycles = dispatch_cycles;
      cc.stall_sec = stall_sec;
      cc.busy_sec = busy_sec[c];
      cc.core_sec = core_sec;
      cc.imbalance = imbalance;
    }

    result.run.MergeFrom(core_run);
    const std::string prefix = "mali.core" + std::to_string(c);
    result.stats.Set(prefix + ".arith_cycles", arith_cycles);
    result.stats.Set(prefix + ".ls_cycles", ls_cycles);
    result.stats.Set(prefix + ".dispatch_cycles", dispatch_cycles);
    result.stats.Set(prefix + ".stall_sec", stall_sec);
    result.stats.Set(prefix + ".l1_misses",
                     static_cast<double>(core_l1_misses));
    result.stats.Set(prefix + ".l2_misses",
                     static_cast<double>(core_l2_misses));
    result.stats.Set(prefix + ".imbalance", imbalance);
  }

  // Device-wide floors: DRAM bandwidth and atomic serialization on the
  // hottest line.
  const double dram_sec = dram_.TransferTime(hierarchy_.dram_fill_lines(),
                                             hierarchy_.dram_writeback_lines(),
                                             hierarchy_.sequential_fraction());
  std::uint64_t hottest_line = 0;
  for (const auto& [line, count] : atomic_lines) {
    hottest_line = std::max(hottest_line, count);
  }
  const double atomic_sec = static_cast<double>(hottest_line) *
                            timing_.atomic_serialize_cycles / timing_.clock_hz;

  double seconds = std::max({core_sec_max, dram_sec, atomic_sec});
  seconds += timing_.kernel_launch_overhead_sec;

  // Modelled thermal-throttle/DVFS event: the governor drops the clock for
  // this launch, stretching elapsed time (pipes busy the same absolute
  // time, so utilization fractions fall — the throttled core idles more).
  if (fault_injector_ != nullptr) {
    const double throttle = fault_injector_->ThrottleTimeFactor(program.name);
    seconds *= throttle;
    if (throttle != 1.0) {
      result.stats.Set("mali.throttle_factor", throttle);
    }
  }

  result.seconds = seconds;
  result.profile.seconds = seconds;
  result.profile.gpu_on = true;
  for (std::uint32_t c = 0; c < cores && c < power::kNumMaliCores; ++c) {
    result.profile.gpu_core_busy[c] = std::clamp(busy_sec[c] / seconds, 0.0, 1.0);
  }
  // Host core 0 babysits the queue (blocking clFinish, mostly WFI).
  result.profile.cpu_busy[0] = 0.02;
  result.profile.dram_bytes = hierarchy_.dram_bytes();

  result.stats.Set("mali.seconds", seconds);
  result.stats.Set("mali.dram_bw_floor_sec", dram_sec);
  result.stats.Set("mali.atomic_floor_sec", atomic_sec);
  result.stats.Set("mali.seq_fraction", hierarchy_.sequential_fraction());
  result.stats.Set("mali.dram_bytes", static_cast<double>(hierarchy_.dram_bytes()));
  result.stats.Set("mali.threads_per_core",
                   static_cast<double>(kernel.threads_per_core));
  result.stats.Set("mali.live_reg_bytes",
                   static_cast<double>(kernel.live_reg_bytes));

  if (recording) {
    obs::KernelRecord record;
    record.kernel = program.name;
    record.device = "mali-t604";
    record.scope = record_scope_;
    record.seconds = seconds;
    record.cores = std::move(core_counters);
    obs::FillLaunchCounts(agg, result.run, hierarchy_.dram_bytes(), &record);
    record.dram_bw_floor_sec = dram_sec;
    record.atomic_floor_sec = atomic_sec;
    record.live_reg_bytes = kernel.live_reg_bytes;
    record.threads_per_core = kernel.threads_per_core;
    record.sched_factor = kernel.sched_factor;
    record.profile = result.profile;
    // What limited this launch: a device-wide floor if one of them won the
    // max() above, otherwise the dominant cost on the slowest core.
    if (dram_sec >= core_sec_max && dram_sec >= atomic_sec) {
      record.bottleneck = "dram-bandwidth";
    } else if (atomic_sec >= core_sec_max) {
      record.bottleneck = "atomic-serialization";
    } else {
      double worst_issue_sec = 0.0;
      double worst_stall_sec = 0.0;
      bool arith_bound = true;
      for (const obs::CoreKernelCounters& cc : record.cores) {
        const double issue_sec =
            (std::max(cc.arith_cycles, cc.ls_cycles) + cc.dispatch_cycles) /
            timing_.clock_hz;
        if (issue_sec + cc.stall_sec >
            worst_issue_sec + worst_stall_sec) {
          worst_issue_sec = issue_sec;
          worst_stall_sec = cc.stall_sec;
          arith_bound = cc.arith_cycles >= cc.ls_cycles;
        }
      }
      if (worst_stall_sec > worst_issue_sec) {
        record.bottleneck = "memory-latency";
      } else {
        record.bottleneck = arith_bound ? "arith-pipe" : "ls-pipe";
      }
    }
    recorder_->AddKernel(std::move(record));
  }
  return result;
}

}  // namespace malisim::mali

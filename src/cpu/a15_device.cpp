#include "cpu/a15_device.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/recorder.h"

namespace malisim::cpu {
namespace {

/// Simulated address range reserved for per-core __local scratch. Real
/// hardware has no CPU-side local memory; this simply keeps scratch
/// addresses disjoint from buffer addresses in the unified address space.
constexpr std::uint64_t kScratchSimBase = 0x7f00'0000'0000ULL;
constexpr std::uint64_t kScratchStride = 16ULL << 20;  // 16 MiB per core

double ClassCycles(const A15TimingParams& t, const kir::OpHistogram& ops) {
  // Compensated sum for the same reason as the Mali model's CountSlots.
  KahanSum cycles;
  ops.ForEach([&](kir::OpClass c, kir::ScalarType st, std::uint8_t lanes,
                  std::uint64_t n) {
    // Scalar pipeline: vector-typed ops decompose into `lanes` scalar ops
    // (no usable FP SIMD — paper §IV-B).
    const double scalar_ops = static_cast<double>(n) * lanes;
    switch (c) {
      case kir::OpClass::kArithSimple:
      case kir::OpClass::kBroadcast:  // a plain register copy on the CPU
        cycles += scalar_ops * t.cycles_arith;
        break;
      case kir::OpClass::kArithMul:
        cycles += scalar_ops * t.cycles_mul;
        break;
      case kir::OpClass::kArithSpecial:
        if (st == kir::ScalarType::kF64) {
          cycles += scalar_ops * t.cycles_special_f64;
        } else if (st == kir::ScalarType::kF32) {
          cycles += scalar_ops * t.cycles_special_f32;
        } else {
          cycles += scalar_ops * t.cycles_special_int;
        }
        break;
      case kir::OpClass::kLoad:
        // A vector load is one instruction but `lanes` elements; the LSU
        // moves up to one 64-bit chunk per cycle.
        cycles += static_cast<double>(n) *
                  std::max(1.0, lanes * kir::ScalarBytes(st) / 8.0) *
                  t.cycles_load;
        break;
      case kir::OpClass::kStore:
        cycles += static_cast<double>(n) *
                  std::max(1.0, lanes * kir::ScalarBytes(st) / 8.0) *
                  t.cycles_store;
        break;
      case kir::OpClass::kAtomic:
        cycles += static_cast<double>(n) * t.cycles_atomic;
        break;
      case kir::OpClass::kControl:
        cycles += static_cast<double>(n) * t.cycles_control;
        break;
      case kir::OpClass::kBarrier:
        cycles += static_cast<double>(n) * 40.0;  // pthread-style sync
        break;
      case kir::OpClass::kNumClasses:
        break;
    }
  });
  return cycles.value();
}

}  // namespace

CortexA15Device::CortexA15Device(const A15TimingParams& timing,
                                 const A15MemoryConfig& memory)
    : timing_(timing),
      hierarchy_(sim::HierarchyConfig{/*has_l1=*/true,
                                      /*num_cores=*/kMaxCores, memory.l1,
                                      memory.l2}),
      dram_(memory.dram) {
  caps_.name = "Cortex-A15 MP2 (modelled)";
  caps_.kind = sim::BackendKind::kA15;
  caps_.compute_units = kMaxCores;
  caps_.max_work_group_size = 256;
  caps_.fp64 = true;
  caps_.clock_hz = timing_.clock_hz;
  caps_.unified_memory = true;  // Exynos 5250: one DRAM for CPU and GPU
  caps_.throughput_hint =
      timing_.clock_hz * static_cast<double>(kMaxCores);
}

StatusOr<sim::DeviceRunResult> CortexA15Device::RunKernel(
    const sim::KernelHandle& kernel, const kir::LaunchConfig& config,
    kir::Bindings bindings) {
  if (kernel.source == nullptr) {
    return InvalidArgumentError(
        "cortex-a15: RunKernel needs the kernel's KIR program");
  }
  return Run(*kernel.source, config, std::move(bindings), kMaxCores);
}

StatusOr<CpuRunResult> CortexA15Device::Run(const kir::Program& program,
                                            const kir::LaunchConfig& config,
                                            kir::Bindings bindings,
                                            int num_threads) {
  if (num_threads < 1 || num_threads > kMaxCores) {
    return InvalidArgumentError("A15 device supports 1.." +
                                std::to_string(kMaxCores) + " threads");
  }
  hierarchy_.ResetStats();
  dram_.ResetStats();

  const std::uint64_t active_groups = config.active_groups();
  CpuRunResult result;
  double max_core_sec = 0.0;
  double busy_cycles_total[kMaxCores] = {};
  double core_sec[kMaxCores] = {};

  obs::HostProf* host_prof =
      recorder_ != nullptr ? recorder_->host_prof() : nullptr;
  const bool recording = recorder_ != nullptr && recorder_->counters_enabled();
  kir::GroupLaunch launch;
  launch.program = &program;
  launch.config = config;
  launch.bindings = &bindings;
  launch.options = options_;
  launch.scratch_base = kScratchSimBase;
  launch.scratch_stride = kScratchStride;
  launch.tally_opcodes = recording;
  // No bytecode: the CPU path has no build step, so the VM compile happens
  // per Run; it is a few microseconds against milliseconds of execution.

  // Phase 1 — functional execution + cache simulation per modelled core:
  // each core takes a contiguous block of the active group sub-range in
  // row-major order (OpenMP static schedule).
  std::vector<sim::CoreSink> sinks;
  sinks.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    const std::uint64_t begin = active_groups * t / num_threads;
    const std::uint64_t end = active_groups * (t + 1) / num_threads;
    sinks.emplace_back(&hierarchy_, static_cast<std::uint32_t>(t));
    launch.cores.push_back(
        {config.group_begin + begin, end - begin, 1, &sinks.back()});
  }
  std::vector<kir::CoreRun> agg;
  MALI_RETURN_IF_ERROR(
      obs::RunWorkGroupsProfiled(host_prof, &launch, &pool_, &agg));

  // Phase 2 — timing model over the per-core aggregates.
  obs::HostProf::PhaseSpan merge_span(host_prof, obs::HostPhase::kMerge);
  std::vector<obs::CoreKernelCounters> core_counters(
      recording ? static_cast<std::size_t>(num_threads) : 0);
  for (int t = 0; t < num_threads; ++t) {
    const kir::WorkGroupRun& core_run = agg[t].run;
    const std::uint64_t core_l1_misses = sinks[t].l1_misses;
    const std::uint64_t core_l2_misses = sinks[t].l2_misses;

    const double issue_cycles = ClassCycles(timing_, core_run.ops);
    const double l2_hit_stall =
        static_cast<double>(core_l1_misses - core_l2_misses) *
        timing_.l2_hit_cycles;
    // DRAM stall: sequential misses are mostly prefetched away; scattered
    // ones overlap only up to the core's miss-level parallelism.
    const double seqf = hierarchy_.sequential_fraction();
    const double exposed_latency_per_miss =
        timing_.dram_latency_sec *
        (seqf * (1.0 - timing_.prefetch_seq_hiding) +
         (1.0 - seqf) / timing_.scattered_mlp);
    const double dram_stall_sec =
        static_cast<double>(core_l2_misses) * exposed_latency_per_miss;

    const double cycles = issue_cycles + l2_hit_stall;
    // A single A15 cannot pull more than per_core_stream_bw from DRAM
    // (limited outstanding misses / prefetch depth).
    const double core_dram_bytes = static_cast<double>(core_l2_misses) *
                                   hierarchy_.l2().config().line_bytes;
    const double core_bw_floor_sec =
        core_dram_bytes / timing_.per_core_stream_bw;
    core_sec[t] = std::max(cycles / timing_.clock_hz + dram_stall_sec,
                           core_bw_floor_sec);
    busy_cycles_total[t] = issue_cycles;
    max_core_sec = std::max(max_core_sec, core_sec[t]);

    if (recording) {
      obs::CoreKernelCounters& cc = core_counters[static_cast<std::size_t>(t)];
      cc.groups = agg[t].groups;
      cc.l1_misses = core_l1_misses;
      cc.l2_misses = core_l2_misses;
      // Scalar in-order issue: everything lands in the arith pipe slot.
      cc.arith_cycles = issue_cycles;
      cc.stall_sec = l2_hit_stall / timing_.clock_hz + dram_stall_sec;
      cc.busy_sec = issue_cycles / timing_.clock_hz;
      cc.core_sec = core_sec[t];
      cc.imbalance = core_run.imbalance_factor();
    }

    result.run.MergeFrom(core_run);
    result.stats.Increment("cpu.core" + std::to_string(t) + ".issue_cycles",
                           issue_cycles);
    result.stats.Increment("cpu.core" + std::to_string(t) + ".l1_misses",
                           static_cast<double>(core_l1_misses));
    result.stats.Increment("cpu.core" + std::to_string(t) + ".l2_misses",
                           static_cast<double>(core_l2_misses));
  }

  // DRAM bandwidth floor across all cores' traffic.
  const double dram_sec = dram_.TransferTime(hierarchy_.dram_fill_lines(),
                                             hierarchy_.dram_writeback_lines(),
                                             hierarchy_.sequential_fraction());
  double seconds = std::max(max_core_sec, dram_sec);
  if (num_threads > 1) {
    seconds = seconds / timing_.omp_parallel_efficiency +
              timing_.omp_region_overhead_sec;
  }
  if (seconds <= 0.0) seconds = 1.0 / timing_.clock_hz;

  result.seconds = seconds;
  result.profile.seconds = seconds;
  for (int t = 0; t < num_threads; ++t) {
    result.profile.cpu_busy[t] =
        std::clamp(busy_cycles_total[t] / timing_.clock_hz / seconds, 0.0, 1.0);
  }
  result.profile.gpu_on = false;
  result.profile.dram_bytes = hierarchy_.dram_bytes();

  result.stats.Set("cpu.seconds", seconds);
  result.stats.Set("cpu.dram_bytes",
                   static_cast<double>(hierarchy_.dram_bytes()));
  result.stats.Set("cpu.dram_bw_floor_sec", dram_sec);
  result.stats.Set("cpu.seq_fraction", hierarchy_.sequential_fraction());

  if (recording) {
    obs::KernelRecord record;
    record.kernel = program.name;
    record.device = "cortex-a15";
    record.scope = record_scope_;
    record.seconds = seconds;
    record.cores = std::move(core_counters);
    obs::FillLaunchCounts(agg, result.run, hierarchy_.dram_bytes(), &record);
    record.dram_bw_floor_sec = dram_sec;
    if (dram_sec >= max_core_sec) {
      record.bottleneck = "dram-bandwidth";
    } else {
      double worst = 0.0;
      bool stall_bound = false;
      for (const obs::CoreKernelCounters& cc : record.cores) {
        if (cc.core_sec > worst) {
          worst = cc.core_sec;
          stall_bound = cc.stall_sec > cc.busy_sec;
        }
      }
      record.bottleneck = stall_bound ? "memory-latency" : "cpu-issue";
    }
    record.profile = result.profile;
    recorder_->AddKernel(std::move(record));
  }
  return result;
}

}  // namespace malisim::cpu

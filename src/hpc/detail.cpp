#include "hpc/detail.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fault/degrade.h"
#include "fault/injector.h"
#include "ocl/cl_error.h"

namespace malisim::hpc::detail {

StatusOr<RunOutcome> RunCpu(Devices& devices, const kir::Program& program,
                            const kir::LaunchConfig& config,
                            const std::vector<CpuBind>& buffers,
                            const std::vector<kir::ScalarValue>& scalars,
                            int threads) {
  MALI_CHECK(devices.cpu != nullptr);
  kir::Bindings bindings;
  std::uint64_t sim_addr = 0x1000'0000ULL;
  for (const CpuBind& b : buffers) {
    bindings.buffers.push_back(
        {static_cast<std::byte*>(b.data), sim_addr, b.bytes});
    sim_addr += (b.bytes + 4095) / 4096 * 4096 + 4096;
  }
  bindings.scalars = scalars;

  devices.cpu->FlushCaches();
  StatusOr<cpu::CpuRunResult> run =
      devices.cpu->Run(program, config, std::move(bindings), threads);
  if (!run.ok()) return run.status();

  RunOutcome outcome;
  outcome.seconds = run->seconds;
  outcome.profile = run->profile;
  outcome.run = run->run;
  outcome.stats = std::move(run->stats);
  return outcome;
}

StatusOr<std::shared_ptr<ocl::Buffer>> MakeGpuBuffer(ocl::Context& context,
                                                     const void* src,
                                                     std::uint64_t bytes) {
  StatusOr<std::shared_ptr<ocl::Buffer>> buffer = context.CreateBuffer(
      ocl::kMemReadWrite | ocl::kMemAllocHostPtr, bytes);
  if (!buffer.ok()) return buffer.status();
  StatusOr<void*> mapped = context.queue().MapBuffer(**buffer);
  if (!mapped.ok()) return mapped.status();
  if (src != nullptr) {
    std::memcpy(*mapped, src, bytes);
  } else {
    std::memset(*mapped, 0, bytes);
  }
  MALI_RETURN_IF_ERROR(context.queue().UnmapBuffer(**buffer, *mapped));
  return *std::move(buffer);
}

StatusOr<RunOutcome> RunGpuKernels(Devices& devices,
                                   std::span<const GpuKernel> kernels) {
  MALI_CHECK(devices.gpu != nullptr);
  ocl::Context& ctx = *devices.gpu;
  std::vector<kir::Program> programs;
  for (const GpuKernel& k : kernels) programs.push_back(k.program);
  std::shared_ptr<ocl::Program> prog = ctx.CreateProgram(std::move(programs));
  MALI_RETURN_IF_ERROR(prog->Build());
  std::vector<std::shared_ptr<ocl::Kernel>> bound;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    StatusOr<std::shared_ptr<ocl::Kernel>> kernel =
        ctx.CreateKernel(prog, kernels[i].program.name);
    if (!kernel.ok()) return kernel.status();
    for (std::size_t a = 0; a < kernels[i].args.size(); ++a) {
      const auto index = static_cast<std::uint32_t>(a);
      const auto& arg = kernels[i].args[a];
      MALI_RETURN_IF_ERROR(
          std::holds_alternative<std::int32_t>(arg)
              ? (*kernel)->SetArgI32(index, std::get<std::int32_t>(arg))
              : (*kernel)->SetArgBuffer(
                    index, std::get<std::shared_ptr<ocl::Buffer>>(arg)));
    }
    bound.push_back(*std::move(kernel));
  }

  ctx.device().FlushCaches();
  const double watchdog = ctx.sim_options().fault.watchdog_sec;
  RunOutcome outcome;
  std::vector<power::ActivityProfile> profiles;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const GpuKernel& k = kernels[i];
    const bool driver_local = k.local[0] == 0;
    StatusOr<ocl::Event> event = ctx.queue().EnqueueNDRange(
        *bound[i], k.work_dim, k.global, driver_local ? nullptr : k.local);
    if (!event.ok()) return event.status();
    if (watchdog > 0.0 && event->seconds > watchdog) {
      fault::FaultInjector* injector = ctx.fault_injector();
      const std::string detail = "modelled " + std::to_string(event->seconds) +
                                 " s > budget " + std::to_string(watchdog) +
                                 " s";
      if (injector != nullptr) {
        injector->RecordAction("watchdog", k.program.name, "aborted", detail);
      }
      return DeadlineExceededError("watchdog: kernel '" + k.program.name +
                                   "' " + detail);
    }
    outcome.seconds += event->seconds;
    profiles.push_back(event->profile);
    outcome.run.MergeFrom(event->run);
    outcome.stats.MergeFrom(event->stats);
  }
  outcome.profile = MergeProfiles(profiles);
  return outcome;
}

StatusOr<RunOutcome> RunKernelLadder(Devices& devices,
                                     std::span<const KernelRung> rungs) {
  MALI_CHECK(devices.gpu != nullptr);
  fault::FaultInjector* injector = devices.gpu->fault_injector();
  const fault::RetryPolicy policy =
      injector != nullptr ? injector->plan().retry : fault::RetryPolicy();

  std::vector<fault::Rung<RunOutcome>> frungs;
  frungs.reserve(rungs.size());
  for (const KernelRung& rung : rungs) {
    frungs.push_back({rung.label, [&policy, injector, &rung](double) {
                        return fault::RetryAttempt<RunOutcome>(
                            policy, injector, rung.label, rung.run);
                      }});
  }
  fault::LadderResult<RunOutcome> walk =
      fault::RunLadder<RunOutcome>(frungs, {}, injector);
  StatusOr<RunOutcome> outcome = std::move(walk.result);
  if (!outcome.ok()) return outcome;

  // Legacy-format note per fallen rung, e.g. "CL_OUT_OF_RESOURCES for
  // vector-gather kernel; fell back to scalar rsqrt+unroll kernel".
  std::string note;
  for (const fault::LadderStep& step : walk.steps) {
    if (step.outcome == fault::StepOutcome::kOk) break;
    if (!note.empty()) note += "; ";
    note += std::string(ocl::ClErrorName(ocl::ClErrorFromStatus(step.status))) +
            " for " + rungs[step.rung].label + "; fell back to " +
            rungs[step.rung + 1].label;
  }
  if (!note.empty()) {
    outcome->note = outcome->note.empty() ? note : note + "; " + outcome->note;
  }
  if (walk.retry.retries > 0) {
    outcome->stats.Set("fault.retries",
                       static_cast<double>(walk.retry.retries));
    outcome->stats.Set("fault.backoff_sec", walk.retry.backoff_sec);
  }
  return outcome;
}

Status ReadGpuBuffer(ocl::Context& context, ocl::Buffer& buffer, void* dst,
                     std::uint64_t bytes) {
  StatusOr<void*> mapped = context.queue().MapBuffer(buffer);
  if (!mapped.ok()) return mapped.status();
  std::memcpy(dst, *mapped, bytes);
  return context.queue().UnmapBuffer(buffer, *mapped);
}

StatusOr<std::shared_ptr<ocl::Buffer>> TunedBufferSet::Make(
    const void* src, std::uint64_t bytes) {
  if (!copy_path_) return MakeGpuBuffer(context_, src, bytes);
  StatusOr<std::shared_ptr<ocl::Buffer>> buffer =
      context_.CreateBuffer(ocl::kMemReadWrite, bytes);
  if (!buffer.ok()) return buffer.status();
  if (src != nullptr) {
    StatusOr<ocl::Event> event =
        context_.queue().EnqueueWriteBuffer(**buffer, src, bytes);
    if (!event.ok()) return event.status();
    seconds_ += event->seconds;
    profiles_.push_back(event->profile);
  }
  return *std::move(buffer);
}

Status TunedBufferSet::Read(ocl::Buffer& buffer, void* dst,
                            std::uint64_t bytes) {
  if (!copy_path_) return ReadGpuBuffer(context_, buffer, dst, bytes);
  StatusOr<ocl::Event> event =
      context_.queue().EnqueueReadBuffer(buffer, dst, bytes);
  if (!event.ok()) return event.status();
  seconds_ += event->seconds;
  profiles_.push_back(event->profile);
  return Status::Ok();
}

void TunedBufferSet::ChargeTransfers(RunOutcome* outcome) const {
  if (!copy_path_ || profiles_.empty()) return;
  std::vector<power::ActivityProfile> merged = profiles_;
  merged.push_back(outcome->profile);
  outcome->profile = MergeProfiles(merged);
  outcome->seconds += seconds_;
}

power::ActivityProfile MergeProfiles(
    std::span<const power::ActivityProfile> profiles) {
  power::ActivityProfile merged;
  double total = 0.0;
  for (const power::ActivityProfile& p : profiles) total += p.seconds;
  merged.seconds = total;
  if (total <= 0.0) return merged;
  for (const power::ActivityProfile& p : profiles) {
    const double w = p.seconds / total;
    for (int i = 0; i < power::kNumA15Cores; ++i) {
      merged.cpu_busy[i] += w * p.cpu_busy[i];
    }
    for (int i = 0; i < power::kNumMaliCores; ++i) {
      merged.gpu_core_busy[i] += w * p.gpu_core_busy[i];
    }
    merged.gpu_on = merged.gpu_on || p.gpu_on;
    merged.dram_bytes += p.dram_bytes;
  }
  return merged;
}

namespace {

/// Mean magnitude of the reference, used as the relative-error floor so
/// that cancellation-prone outputs near zero do not blow the metric up
/// (the absolute error there is still bounded by tol * problem scale).
double MeanAbs(std::span<const double> want) {
  if (want.empty()) return 1e-12;
  double sum = 0.0;
  for (double w : want) sum += std::fabs(w);
  return std::max(sum / static_cast<double>(want.size()), 1e-12);
}

}  // namespace

double MaxRelError(const FpBuffer& got, std::span<const double> want) {
  double max_err = 0.0;
  const double floor = MeanAbs(want);
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::max(std::fabs(want[i]), floor);
    max_err = std::max(max_err, std::fabs(got.Get(i) - want[i]) / denom);
  }
  return max_err;
}

double MaxRelError(std::span<const double> got, std::span<const double> want) {
  double max_err = 0.0;
  const double floor = MeanAbs(want);
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::max(std::fabs(want[i]), floor);
    max_err = std::max(max_err, std::fabs(got[i] - want[i]) / denom);
  }
  return max_err;
}

void FinishValidation(RunOutcome* outcome, double err, double tol) {
  outcome->max_rel_error = err;
  outcome->validated = err <= tol;
  if (!outcome->validated) {
    outcome->note += (outcome->note.empty() ? "" : "; ");
    outcome->note += "VALIDATION FAILED (max rel err " + std::to_string(err) +
                     " > tol " + std::to_string(tol) + ")";
  }
}

std::uint64_t TunedLocalSize(std::uint64_t global, std::uint64_t preferred) {
  std::uint64_t pick = 1;
  while (pick * 2 <= preferred && global % (pick * 2) == 0) pick *= 2;
  return pick;
}

Chunk ThreadChunk(kir::KernelBuilder& kb, kir::Val n) {
  using kir::Opcode;
  kir::Val gid = kb.GlobalId(0);
  kir::Val nthreads = kb.GlobalSize(0);
  // chunk = (n + nthreads - 1) / nthreads
  kir::Val chunk = kb.Binary(
      Opcode::kIDiv,
      kb.Binary(Opcode::kSub, kb.Binary(Opcode::kAdd, n, nthreads),
                kb.ConstI(kir::I32(), 1)),
      nthreads);
  kir::Val start = kb.Binary(Opcode::kMul, gid, chunk);
  kir::Val end = kb.Min(kb.Binary(Opcode::kAdd, start, chunk), n);
  return {start, end};
}

}  // namespace malisim::hpc::detail

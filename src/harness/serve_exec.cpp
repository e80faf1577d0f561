#include "harness/serve_exec.h"

#include <memory>
#include <utility>

#include "fault/injector.h"

namespace malisim::harness {

Board::Board(sim::BackendKind device, double hetero_ratio, bool hetero_column,
             const SimOptions& options, fault::FaultInjector* injector,
             obs::Recorder* recorder, mali::CompileCache* compile_cache)
    : gpu_(device) {
  devices_ = {&cpu_, &gpu_};
  if (device == sim::BackendKind::kHetero) {
    devices_.hetero = &gpu_;
  } else if (hetero_column) {
    second_hetero_ = std::make_unique<ocl::Context>(sim::BackendKind::kHetero);
    devices_.hetero = second_hetero_.get();
  }
  cpu_.set_sim_options(options);
  cpu_.set_recorder(recorder);
  for (ocl::Context* context : {&gpu_, second_hetero_.get()}) {
    if (context == nullptr) continue;
    context->set_hetero_ratio(hetero_ratio);
    context->set_sim_options(options);
    context->set_fault_injector(injector);
    context->set_recorder(recorder);
    context->set_compile_cache(compile_cache);
  }
}

Status ExecuteJobVariant(const JobExecRequest& request, JobExecResult* out) {
  *out = JobExecResult();
  std::unique_ptr<hpc::Benchmark> bench =
      hpc::CreateBenchmark(request.benchmark, request.sizes);
  if (bench == nullptr) {
    return NotFoundError("unknown benchmark '" + request.benchmark + "'");
  }
  MALI_RETURN_IF_ERROR(bench->Setup(request.fp64, request.seed));

  StatusOr<fault::FaultPlan> plan_or =
      fault::FaultPlan::FromOptions(request.fault);
  if (!plan_or.ok()) return plan_or.status();
  fault::FaultPlan plan = *std::move(plan_or);
  plan.retry.max_total_backoff_sec = request.max_total_backoff_sec;
  fault::FaultInjector injector(plan);

  // Fresh board per job: no mutable simulator state crosses jobs.
  SimOptions sim_options;
  sim_options.threads = 1;  // jobs fan out across workers; engines serial
  sim_options.fault = request.fault;
  Board board(request.device, request.hetero_ratio,
              request.variant == hpc::Variant::kHetero, sim_options,
              &injector, /*recorder=*/nullptr, request.compile_cache);
  hpc::Devices& devices = board.devices();

  StatusOr<hpc::RunOutcome> run = fault::RetryWithBackoff(
      plan.retry,
      [&] {
        if (request.tuned != nullptr &&
            request.variant == hpc::Variant::kOpenCLOpt) {
          return bench->RunTuned(*request.tuned, devices);
        }
        return bench->RunVariant(request.variant, devices);
      },
      &out->retry);
  if (!run.ok()) return run.status();
  if (!run->validated) {
    // A fast-but-wrong result is a failed job, not a success — and not a
    // degradable failure either: nothing suggests a lower rung computes a
    // different answer.
    return InternalError("job failed validation (max_rel_error=" +
                         std::to_string(run->max_rel_error) + ")");
  }

  const power::PowerModel power_model(request.power);
  out->seconds = run->seconds;
  out->energy_j = power_model.Energy(run->profile);
  out->validated = run->validated;
  out->note = run->note;
  return Status::Ok();
}

}  // namespace malisim::harness

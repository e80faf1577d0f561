#include "harness/tuning.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/log.h"
#include "fault/injector.h"
#include "harness/serve_exec.h"
#include "hpc/benchmark.h"
#include "ocl/runtime.h"

namespace malisim::harness {

namespace {

/// The GPU-share axis appended to every space on the hetero backend.
constexpr const char* kHeteroAxis = "hetero_permille";

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return std::string(buf);
}

/// Every size field enters the fingerprint, not just the tuned
/// benchmark's: the encoding stays trivially stable as fields are added,
/// and a spurious invalidation costs one re-tune, never a wrong winner.
std::string SizesKey(const hpc::ProblemSizes& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "spmv=%u/%u,vecop=%u,hist=%u/%u,stc=%u,red=%u,"
                "amcd=%u/%u/%u,nbody=%u,conv=%u,dmmm=%u",
                s.spmv_rows, s.spmv_avg_nnz_per_row, s.vecop_n, s.hist_n,
                s.hist_bins, s.stencil_dim, s.red_n, s.amcd_chains,
                s.amcd_atoms, s.amcd_steps, s.nbody_n, s.conv_dim, s.dmmm_n);
  return std::string(buf);
}

}  // namespace

StatusOr<std::string> TuningFingerprint(const std::string& benchmark,
                                        const hpc::ProblemSizes& sizes,
                                        bool fp64, std::uint64_t seed) {
  std::unique_ptr<hpc::Benchmark> bench =
      hpc::CreateBenchmark(benchmark, sizes);
  if (bench == nullptr) {
    return NotFoundError("unknown benchmark '" + benchmark + "'");
  }
  // Setup before TunedKernelText: the kernel builders read the precision
  // (and any Setup-derived geometry) from the instance.
  MALI_RETURN_IF_ERROR(bench->Setup(fp64, seed));
  StatusOr<std::string> text =
      bench->TunedKernelText(bench->PaperOptConfig());
  if (!text.ok()) return text.status();
  std::string blob = benchmark;
  blob += fp64 ? "|fp64|" : "|fp32|";
  blob += SizesKey(sizes);
  blob += '|';
  blob += *text;
  return Hex64(Fnv1a64(blob));
}

StatusOr<TuningReport> TuneBenchmark(const TuningRequest& request) {
  std::unique_ptr<hpc::Benchmark> probe =
      hpc::CreateBenchmark(request.benchmark, request.sizes);
  if (probe == nullptr) {
    return NotFoundError("unknown benchmark '" + request.benchmark + "'");
  }
  sim::TuningSpace space = probe->TunableSpace();
  if (space.axes.empty()) {
    return UnimplementedError("benchmark '" + request.benchmark +
                              "' declares no tuning space");
  }
  // On the hetero backend the PR 5 split ratio folds into the same
  // search: every benchmark's space gains a GPU-share axis (permille;
  // 0 = all-A15, 1000 = all-Mali), applied per candidate below. The axis
  // enters the space signature, so hetero winners are cached apart from
  // single-device ones.
  if (request.device == sim::BackendKind::kHetero) {
    space.axes.push_back(
        {kHeteroAxis, {0, 250, 500, 750, 1000}});
  }

  TuningReport report;
  report.paper_config = probe->PaperOptConfig();

  StatusOr<std::string> fingerprint = TuningFingerprint(
      request.benchmark, request.sizes, request.fp64, request.seed);
  if (!fingerprint.ok()) return fingerprint.status();

  // The capability record of the backend the candidates will run on: a
  // modelled-device configuration change invalidates cached winners.
  const sim::DeviceCaps caps =
      ocl::Context(request.device).backend().caps();
  report.cache_key = sim::TuningCacheKey(*fingerprint, caps,
                                         request.tuner.objective, space);

  if (request.cache != nullptr) {
    sim::TuningCacheEntry entry;
    if (request.cache->Lookup(report.cache_key, &entry)) {
      StatusOr<sim::TuningConfig> config =
          sim::ConfigFromKey(space, entry.config_key);
      if (config.ok()) {
        report.result.best = *std::move(config);
        report.result.best_measurement = {entry.seconds, entry.energy_j};
        report.result.best_score = entry.score;
        report.result.space_size = space.Size();
        report.result.from_cache = true;
        return report;
      }
      // A key that no longer resolves against the declared space is a
      // stale entry (the space changed without a fingerprint change, which
      // Signature() in the cache key should prevent): re-tune.
      MALI_LOG_WARN("tuning cache entry for %s does not resolve (%s); "
                    "re-tuning",
                    request.benchmark.c_str(),
                    config.status().ToString().c_str());
    }
  }

  const power::PowerModel power_model(request.power);
  auto eval = [&request, &power_model](const sim::TuningConfig& config)
      -> StatusOr<sim::TuningMeasurement> {
    // Fully self-contained evaluation: fresh benchmark, fresh devices.
    // Runs concurrently from pool workers when the tuner fans out.
    std::unique_ptr<hpc::Benchmark> bench =
        hpc::CreateBenchmark(request.benchmark, request.sizes);
    MALI_CHECK(bench != nullptr);
    MALI_RETURN_IF_ERROR(bench->Setup(request.fp64, request.seed));

    // Fault schedule keyed per candidate, so injected faults land on the
    // same candidates regardless of evaluation order or thread count.
    StatusOr<fault::FaultPlan> plan = fault::FaultPlan::FromOptions(
        request.fault);
    if (!plan.ok()) return plan.status();
    plan->seed ^= Fnv1a64(request.benchmark + "/" +
                               config.CanonicalKey());
    fault::FaultInjector injector(*plan);

    const std::int64_t permille = config.Get(kHeteroAxis, -1);
    SimOptions sim_options;
    sim_options.threads = 1;  // candidates fan out; engines stay serial
    sim_options.fault = request.fault;
    Board board(request.device,
                permille >= 0 ? static_cast<double>(permille) / 1000.0 : -1.0,
                /*hetero_column=*/false, sim_options, &injector);
    hpc::Devices& devices = board.devices();
    StatusOr<hpc::RunOutcome> run = bench->RunTuned(config, devices);
    if (!run.ok()) return run.status();
    if (!run->validated) {
      // An invalid result must read as a skipped candidate, never a
      // winner — a fast-but-wrong kernel is not an optimization.
      return InternalError("candidate " + config.CanonicalKey() +
                           " failed validation (max_rel_error=" +
                           std::to_string(run->max_rel_error) + ")");
    }
    sim::TuningMeasurement m;
    m.seconds = run->seconds;
    m.energy_j = power_model.Energy(run->profile);
    return m;
  };

  const sim::Tuner tuner(request.tuner);
  StatusOr<sim::TunerResult> result = tuner.Search(space, eval);
  if (!result.ok()) return result.status();
  report.result = *std::move(result);

  if (request.cache != nullptr) {
    sim::TuningCacheEntry entry;
    entry.config_key = report.result.best.CanonicalKey();
    entry.objective = std::string(sim::ObjectiveName(request.tuner.objective));
    entry.score = report.result.best_score;
    entry.seconds = report.result.best_measurement.seconds;
    entry.energy_j = report.result.best_measurement.energy_j;
    request.cache->Insert(report.cache_key, std::move(entry));
  }
  return report;
}

}  // namespace malisim::harness

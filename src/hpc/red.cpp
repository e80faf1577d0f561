// Reduction (red): sum of a vector.
//
// Paper §IV-A: "allows to measure the capability of the compute accelerator
// to adapt from massively parallel computation stages to almost sequential
// execution". §V-A: the GPU versions use a two-stage reduction — a parallel
// stage producing per-work-item partials, then a near-sequential stage —
// and "the main difference between OpenCL and OpenCL Opt is due to the
// vectorization and the use of a tuned work-group size".
#include <cmath>
#include <vector>

#include "common/prng.h"
#include "hpc/detail.h"
#include "hpc/kernels.h"

namespace malisim::hpc {
namespace {

using detail::FpBuffer;
using kir::ArgKind;
using kir::KernelBuilder;
using kir::Opcode;
using kir::Val;

class ReductionBenchmark final : public Benchmark {
 public:
  explicit ReductionBenchmark(const ProblemSizes& sizes) : n_(sizes.red_n) {}

  std::string name() const override { return "red"; }
  std::string description() const override {
    return "two-stage sum reduction (parallel-to-sequential adaptation)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    a_ = FpBuffer(fp64, n_);
    Xoshiro256 rng(seed);
    ref_sum_ = 0.0;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const double v = rng.NextDouble(0.0, 1.0);
      a_.Set(i, v);
      ref_sum_ += a_.Get(i);
    }
    return Status::Ok();
  }

  // §III knobs: accumulator vector width (both stages), stage-1 work-item
  // count (the parallel/sequential balance point §IV-A describes), and the
  // stage-1 work-group size.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vec", {1, 2, 4}},
                  {"items1", {512, 1024, 2048}},
                  {"wg", {64, 128, 256}}};
    space.valid = [n = n_](const sim::TuningConfig& c) {
      const std::int64_t vec = c.Get("vec", 1);
      const std::int64_t items1 = c.Get("items1", 1024);
      // Stage 1 strides chunks by vec and stage 2 folds items1 by vec, so
      // both must divide evenly.
      return n % items1 == 0 && (n / items1) % vec == 0 && items1 % vec == 0;
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vec", 4);
    config.Set("items1", 1024);
    config.Set("wg", 128);
    return config;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> s1 = BuildGpuStage1(&config);
    if (!s1.ok()) return s1.status();
    StatusOr<kir::Program> s2 = BuildGpuStage2(&config);
    if (!s2.ok()) return s2.status();
    return kir::ToText(*s1) + kir::ToText(*s2);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }
  double tol() const { return fp64_ ? 1e-9 : 5e-2; }

  // partial[gid] = sum of this thread's contiguous chunk.
  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("red_cpu");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto partial = kb.ArgBuffer("partial", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    Val acc = kb.Var(kir::FloatType(fp64_), "acc");
    kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
    kb.For("i", chunk.start, chunk.end, 1,
           [&](Val i) { kb.Assign(acc, acc + kb.Load(a, i)); });
    kb.Store(partial, kb.GlobalId(0), acc);
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) override {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    FpBuffer partial(fp64_, static_cast<std::size_t>(threads));
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{a_.data(), a_.bytes()}, {partial.data(), partial.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_))}, threads);
    if (!outcome.ok()) return outcome;
    double sum = 0.0;
    for (int t = 0; t < threads; ++t) sum += partial.Get(t);
    detail::FinishValidation(
        &*outcome, std::abs(sum - ref_sum_) / std::abs(ref_sum_), tol());
    return outcome;
  }

  // Stage 1: each work-item sums a contiguous chunk into partial[gid].
  // Naive (`config` null): scalar loads. Opt: §III-C qualifiers and at
  // vec > 1 the §III-B vector accumulator + vloadN (chunk sizes are
  // multiples of vec by the space's validity rule), folded once at the end.
  StatusOr<kir::Program> BuildGpuStage1(const sim::TuningConfig* config) const {
    const bool opt = config != nullptr;
    const int vec = opt ? static_cast<int>(config->Get("vec", 4)) : 1;
    KernelBuilder kb(opt ? "red_stage1_opt" : "red_stage1");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, opt, opt);
    auto partial = kb.ArgBuffer("partial", ft(), ArgKind::kBufferWO, opt,
                                false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    if (vec <= 1) {
      Val acc = kb.Var(kir::FloatType(fp64_), "acc");
      kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
      kb.For("i", chunk.start, chunk.end, 1,
             [&](Val i) { kb.Assign(acc, acc + kb.Load(a, i)); });
      kb.Store(partial, kb.GlobalId(0), acc);
    } else {
      const auto lanes = static_cast<std::uint8_t>(vec);
      Val accv = kb.Var(kir::FloatType(fp64_, lanes), "accv");
      kb.Assign(accv, detail::FConst(kb, fp64_, 0.0, lanes));
      kb.For("i", chunk.start, chunk.end, vec,
             [&](Val i) { kb.Assign(accv, accv + kb.Load(a, i, 0, lanes)); });
      kb.Store(partial, kb.GlobalId(0), kb.VSum(accv));
    }
    return kb.Build();
  }

  // Stage 2: one work-item folds the partials, at the same width.
  StatusOr<kir::Program> BuildGpuStage2(const sim::TuningConfig* config) const {
    const bool opt = config != nullptr;
    const int vec = opt ? static_cast<int>(config->Get("vec", 4)) : 1;
    KernelBuilder kb(opt ? "red_stage2_opt" : "red_stage2");
    auto partial = kb.ArgBuffer("partial", ft(), ArgKind::kBufferRO, opt, opt);
    auto out = kb.ArgBuffer("out", ft(), ArgKind::kBufferWO, opt, false);
    Val m = kb.ArgScalar("m", kir::ScalarType::kI32);
    if (vec <= 1) {
      Val acc = kb.Var(kir::FloatType(fp64_), "acc");
      kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
      kb.For("i", 0, m, 1,
             [&](Val i) { kb.Assign(acc, acc + kb.Load(partial, i)); });
      kb.Store(out, kb.ConstI(kir::I32(), 0), acc);
    } else {
      const auto lanes = static_cast<std::uint8_t>(vec);
      Val accv = kb.Var(kir::FloatType(fp64_, lanes), "accv");
      kb.Assign(accv, detail::FConst(kb, fp64_, 0.0, lanes));
      kb.For("i", 0, m, vec,
             [&](Val i) { kb.Assign(accv, accv + kb.Load(partial, i, 0, lanes)); });
      kb.Store(out, kb.ConstI(kir::I32(), 0), kb.VSum(accv));
    }
    return kb.Build();
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices,
                                     const sim::TuningConfig* config) override {
    // Naive: 2048 stage-1 work-items in many tiny work-groups (driver
    // heuristic). Opt: the config's stage-1 item count (paper point 1024)
    // in tuned work-groups (paper point 128 items).
    const std::uint64_t items1 =
        config != nullptr
            ? static_cast<std::uint64_t>(config->Get("items1", 1024))
            : 2048;
    StatusOr<kir::Program> s1 = BuildGpuStage1(config);
    if (!s1.ok()) return s1.status();
    StatusOr<kir::Program> s2 = BuildGpuStage2(config);
    if (!s2.ok()) return s2.status();

    ocl::Context& ctx = *devices.gpu;
    auto a = detail::MakeGpuBuffer(ctx, a_.data(), a_.bytes());
    if (!a.ok()) return a.status();
    auto partial =
        detail::MakeGpuBuffer(ctx, nullptr, items1 * a_.elem_bytes());
    if (!partial.ok()) return partial.status();
    auto out = detail::MakeGpuBuffer(ctx, nullptr, a_.elem_bytes());
    if (!out.ok()) return out.status();

    detail::GpuKernel kernels[2] = {
        {*std::move(s1), {*a, *partial, static_cast<std::int32_t>(n_)}},
        {*std::move(s2),
         {*partial, *out, static_cast<std::int32_t>(items1)}}};
    kernels[0].global[0] = items1;
    if (config != nullptr) {
      kernels[0].local[0] = detail::TunedLocalSize(
          items1, static_cast<std::uint64_t>(config->Get("wg", 128)));
    }
    StatusOr<RunOutcome> outcome = detail::RunGpuKernels(devices, kernels);
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, 1);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **out, result.data(), result.bytes()));
    detail::FinishValidation(
        &*outcome, std::abs(result.Get(0) - ref_sum_) / std::abs(ref_sum_),
        tol());
    return outcome;
  }

  std::uint32_t n_;
  FpBuffer a_;
  double ref_sum_ = 0.0;
};

}  // namespace

std::unique_ptr<Benchmark> MakeReduction(const ProblemSizes& sizes) {
  return std::make_unique<ReductionBenchmark>(sizes);
}

}  // namespace malisim::hpc

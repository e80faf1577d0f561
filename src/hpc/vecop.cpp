// Vector Operation (vecop): element-wise c = a + b.
//
// Paper §IV-A: "Given the memory-bound nature of the kernel, this benchmark
// stresses the memory bandwidth of the platform under study."
//
// Versions:
//  * Serial/OpenMP — scalar loop over a contiguous chunk per core.
//  * OpenCL        — one element per work-item, scalar loads, driver-chosen
//                    work-group size.
//  * OpenCL Opt    — §III-B vectorization: float4/double4 vload/vstore, four
//                    elements per work-item, manually tuned work-group size,
//                    restrict/const qualifiers.
#include <vector>

#include "common/prng.h"
#include "hpc/detail.h"
#include "hpc/kernels.h"

namespace malisim::hpc {
namespace {

using detail::FpBuffer;
using kir::ArgKind;
using kir::KernelBuilder;
using kir::Val;

class VecopBenchmark final : public Benchmark {
 public:
  explicit VecopBenchmark(const ProblemSizes& sizes) : n_(sizes.vecop_n) {}

  std::string name() const override { return "vecop"; }
  std::string description() const override {
    return "element-wise vector addition (memory-bandwidth bound)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    a_ = FpBuffer(fp64, n_);
    b_ = FpBuffer(fp64, n_);
    ref_.assign(n_, 0.0);
    Xoshiro256 rng(seed);
    for (std::uint32_t i = 0; i < n_; ++i) {
      a_.Set(i, rng.NextDouble(-1.0, 1.0));
      b_.Set(i, rng.NextDouble(-1.0, 1.0));
      ref_[i] = a_.Get(i) + b_.Get(i);
    }
    return Status::Ok();
  }

  // §III knobs: vector width, work-group size, and the map-vs-copy buffer
  // strategy (§III-A) — vecop is the benchmark where the copy overhead is
  // most visible because the kernel itself is pure bandwidth.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vec", {1, 2, 4}},
                  {"wg", {32, 64, 128, 256}},
                  {"copy", {0, 1}}};
    space.valid = [n = n_](const sim::TuningConfig& c) {
      return n % static_cast<std::uint32_t>(c.Get("vec", 1)) == 0;
    };
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vec", 4);
    config.Set("wg", 128);
    config.Set("copy", 0);
    return config;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program = BuildGpuKernel(&config);
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("vecop_cpu");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    kb.For("i", chunk.start, chunk.end, 1, [&](Val i) {
      kb.Store(c, i, kb.Load(a, i) + kb.Load(b, i));
    });
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) override {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    FpBuffer c(fp64_, n_);
    kir::LaunchConfig config;
    config.work_dim = 1;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    config.local_size = {1, 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{a_.data(), a_.bytes()}, {b_.data(), b_.bytes()}, {c.data(), c.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(c, ref_), 1e-5);
    return outcome;
  }

  /// The naive kernel (`config` null: one element per work-item, scalar
  /// loads) or the optimized one: §III-C restrict/const qualifiers, and at
  /// vec > 1 the §III-B vloadN/vstoreN form, N elements per work-item.
  StatusOr<kir::Program> BuildGpuKernel(const sim::TuningConfig* config) const {
    const bool opt = config != nullptr;
    const int vec = opt ? static_cast<int>(config->Get("vec", 4)) : 1;
    KernelBuilder kb(opt ? "vecop_cl_opt" : "vecop_cl");
    auto a = kb.ArgBuffer("a", ft(), ArgKind::kBufferRO, /*is_restrict=*/opt,
                          /*is_const=*/opt);
    auto b = kb.ArgBuffer("b", ft(), ArgKind::kBufferRO, opt, opt);
    auto c = kb.ArgBuffer("c", ft(), ArgKind::kBufferWO, opt, false);
    Val gid = kb.GlobalId(0);
    if (vec <= 1) {
      kb.Store(c, gid, kb.Load(a, gid) + kb.Load(b, gid));
    } else {
      Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), vec));
      const auto lanes = static_cast<std::uint8_t>(vec);
      Val va = kb.Load(a, base, 0, lanes);
      Val vb = kb.Load(b, base, 0, lanes);
      kb.Store(c, base, va + vb);
    }
    return kb.Build();
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices,
                                     const sim::TuningConfig* config) override {
    const bool opt = config != nullptr;
    const std::uint64_t vec = opt ? config->Get("vec", 4) : 1;
    StatusOr<kir::Program> program = BuildGpuKernel(config);
    if (!program.ok()) return program.status();
    detail::TunedBufferSet buffers(*devices.gpu,
                                   opt && config->Get("copy", 0) != 0);
    auto a = buffers.Make(a_.data(), a_.bytes());
    if (!a.ok()) return a.status();
    auto b = buffers.Make(b_.data(), b_.bytes());
    if (!b.ok()) return b.status();
    auto c = buffers.Make(nullptr, a_.bytes());
    if (!c.ok()) return c.status();

    detail::GpuKernel kernel{*std::move(program), {*a, *b, *c}};
    kernel.global[0] = n_ / vec;
    if (opt) {
      // §III-A: a tuned work-group size; the naive version leaves the
      // choice to the driver.
      kernel.local[0] = detail::TunedLocalSize(
          kernel.global[0], static_cast<std::uint64_t>(config->Get("wg", 128)));
    }
    StatusOr<RunOutcome> outcome = detail::RunGpuKernels(devices, {&kernel, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, n_);
    MALI_RETURN_IF_ERROR(buffers.Read(**c, result.data(), result.bytes()));
    buffers.ChargeTransfers(&*outcome);
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), 1e-5);
    return outcome;
  }

  std::uint32_t n_;
  FpBuffer a_, b_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeVecop(const ProblemSizes& sizes) {
  return std::make_unique<VecopBenchmark>(sizes);
}

}  // namespace malisim::hpc

// Histogram (hist): bucket counts of a real-valued vector.
//
// Paper §IV-A: "uses local privatization that requires a reduction stage
// which can become a bottleneck on highly parallel architectures"; §V-A:
// the GPU version "makes use of atomic operations supported at hardware
// level".
//
// Versions:
//  * Serial/OpenMP — per-thread private bins (no atomics), merged by the
//    host outside the measured region.
//  * OpenCL        — one element per work-item, global atomic_add straight
//    into the shared bins: heavy same-line contention in the L2 atomic unit.
//  * OpenCL Opt    — work-group-private __local bins filled with local
//    atomics behind a barrier, then one global atomic flush per bin per
//    group (the privatization + reduction structure of §IV-A), plus tuned
//    work-group size.
#include <cmath>
#include <cstdint>
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

class HistBenchmark final : public Benchmark {
 public:
  explicit HistBenchmark(const ProblemSizes& sizes)
      : n_(sizes.hist_n), bins_(sizes.hist_bins) {}

  std::string name() const override { return "hist"; }
  std::string description() const override {
    return "histogram with hardware atomics and local privatization";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    if (bins_ == 0 || bins_ > 256) {
      return InvalidArgumentError(
          "hist: bin count must be in 1..256 (the optimized kernel "
          "privatizes one bin per work-item of a 256-item group)");
    }
    fp64_ = fp64;
    seed_ = seed;
    data_ = FpBuffer(fp64, n_);
    ref_.assign(bins_, 0);
    Xoshiro256 rng(seed);
    for (std::uint32_t i = 0; i < n_; ++i) {
      // Mild skew (squared uniform) so some bins are hot, as in real data.
      const double u = rng.NextDouble();
      data_.Set(i, u * u);
    }
    // Reference bucketing replicates the kernels' arithmetic per precision.
    for (std::uint32_t i = 0; i < n_; ++i) {
      ref_[BucketOf(data_.Get(i))]++;
    }
    return Status::Ok();
  }

  // §III knobs: work-group size and group count. Away from one work-item
  // per bin, the optimized kernel strides its zero/flush stages over the
  // bins so every work-group size stays legal (see BuildGpuOpt).
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"wg", {64, 128, 256}}, {"groups", {4, 8, 16}}};
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("wg", 256);
    config.Set("groups", 8);
    return config;
  }

  StatusOr<std::string> TunedKernelText(
      const sim::TuningConfig& config) const override {
    StatusOr<kir::Program> program = BuildGpuOpt(config);
    if (!program.ok()) return program.status();
    return kir::ToText(*program);
  }

 private:
  kir::ScalarType ft() const {
    return fp64_ ? kir::ScalarType::kF64 : kir::ScalarType::kF32;
  }

  std::int32_t BucketOf(double v) const {
    // Matches the kernel: bucket = min((i32)(v * bins), bins - 1).
    std::int32_t b;
    if (fp64_) {
      b = static_cast<std::int32_t>(v * static_cast<double>(bins_));
    } else {
      b = static_cast<std::int32_t>(static_cast<float>(v) *
                                    static_cast<float>(bins_));
    }
    return std::min(b, static_cast<std::int32_t>(bins_) - 1);
  }

  /// Emits: bucket = min(convert_i32(v * bins), bins-1).
  Val EmitBucket(KernelBuilder& kb, Val v, Val bins_f, Val bins_minus_1) const {
    Val scaled = v * bins_f;
    Val b = kb.Convert(scaled, kir::ScalarType::kI32);
    return kb.Min(b, bins_minus_1);
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("hist_cpu");
    auto data = kb.ArgBuffer("data", ft(), ArgKind::kBufferRO);
    auto priv = kb.ArgBuffer("priv", kir::ScalarType::kI32, ArgKind::kBufferRW);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    Val nbins = kb.ArgScalar("nbins", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    Val base = kb.Binary(Opcode::kMul, kb.GlobalId(0), nbins);
    Val bins_f = kb.Convert(nbins, ft());
    Val bins_m1 = kb.Binary(Opcode::kSub, nbins, kb.ConstI(kir::I32(), 1));
    Val one = kb.ConstI(kir::I32(), 1);
    kb.For("i", chunk.start, chunk.end, 1, [&](Val i) {
      Val bucket = EmitBucket(kb, kb.Load(data, i), bins_f, bins_m1);
      Val idx = kb.Binary(Opcode::kAdd, base, bucket);
      kb.Store(priv, idx, kb.Load(priv, idx) + one);
    });
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) override {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    std::vector<std::int32_t> priv(
        static_cast<std::size_t>(threads) * bins_, 0);
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{data_.data(), data_.bytes()},
         {priv.data(), priv.size() * sizeof(std::int32_t)}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(n_)),
         kir::ScalarValue::I32V(static_cast<std::int32_t>(bins_))},
        threads);
    if (!outcome.ok()) return outcome;
    // Host-side merge of the per-thread bins (outside the measured region).
    std::vector<std::int32_t> merged(bins_, 0);
    for (int t = 0; t < threads; ++t) {
      for (std::uint32_t b = 0; b < bins_; ++b) {
        merged[b] += priv[static_cast<std::size_t>(t) * bins_ + b];
      }
    }
    detail::FinishValidation(&*outcome, BinError(merged), 0.0);
    return outcome;
  }

  double BinError(const std::vector<std::int32_t>& got) const {
    double err = 0.0;
    for (std::uint32_t b = 0; b < bins_; ++b) {
      err = std::max(err, static_cast<double>(std::abs(got[b] - ref_[b])));
    }
    return err;
  }

  StatusOr<kir::Program> BuildGpuNaive() const {
    KernelBuilder kb("hist_cl");
    auto data = kb.ArgBuffer("data", ft(), ArgKind::kBufferRO);
    auto bins = kb.ArgBuffer("bins", kir::ScalarType::kI32, ArgKind::kBufferRW);
    Val nbins = kb.ArgScalar("nbins", kir::ScalarType::kI32);
    Val bins_f = kb.Convert(nbins, ft());
    Val bins_m1 = kb.Binary(Opcode::kSub, nbins, kb.ConstI(kir::I32(), 1));
    Val gid = kb.GlobalId(0);
    Val bucket = EmitBucket(kb, kb.Load(data, gid), bins_f, bins_m1);
    kb.AtomicAdd(bins, bucket, kb.ConstI(kir::I32(), 1));
    return kb.Build();
  }

  /// Opt: work-group-private __local bins filled with local atomics
  /// behind a barrier, then one global atomic flush per non-empty bin per
  /// group. At one work-item per bin (wg == bins, the paper point) each
  /// item zeroes and flushes its own bin; other work-group sizes stride the
  /// zero/flush stages over the bins in steps of wg.
  StatusOr<kir::Program> BuildGpuOpt(const sim::TuningConfig& config) const {
    const int wg = static_cast<int>(config.Get("wg", 256));
    KernelBuilder kb("hist_cl_opt");
    auto data = kb.ArgBuffer("data", ft(), ArgKind::kBufferRO, true, true);
    auto bins = kb.ArgBuffer("bins", kir::ScalarType::kI32, ArgKind::kBufferRW,
                             true, false);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    Val nbins = kb.ArgScalar("nbins", kir::ScalarType::kI32);
    auto local_bins = kb.LocalArray("local_bins", kir::ScalarType::kI32, 256);

    Val lid = kb.LocalId(0);
    Val zero = kb.ConstI(kir::I32(), 0);
    Val one = kb.ConstI(kir::I32(), 1);
    auto each_own_bin = [&](const char* loop, auto body) {
      if (static_cast<std::uint32_t>(wg) == bins_) {
        body(lid);
      } else {
        kb.For(loop, lid, nbins, wg, body);
      }
    };
    each_own_bin("z", [&](Val b) { kb.Store(local_bins, b, zero); });
    kb.Barrier();

    Val bins_f = kb.Convert(nbins, ft());
    Val bins_m1 = kb.Binary(Opcode::kSub, nbins, one);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    kb.For("i", chunk.start, chunk.end, 1, [&](Val i) {
      Val bucket = EmitBucket(kb, kb.Load(data, i), bins_f, bins_m1);
      kb.AtomicAdd(local_bins, bucket, one);
    });

    kb.Barrier();
    each_own_bin("f", [&](Val b) {
      Val count = kb.Load(local_bins, b);
      kb.If(kb.CmpNe(count, zero), [&] { kb.AtomicAdd(bins, b, count); });
    });
    return kb.Build();
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices,
                                     const sim::TuningConfig* config) override {
    StatusOr<kir::Program> program =
        config != nullptr ? BuildGpuOpt(*config) : BuildGpuNaive();
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    auto data = detail::MakeGpuBuffer(ctx, data_.data(), data_.bytes());
    if (!data.ok()) return data.status();
    auto bins = detail::MakeGpuBuffer(ctx, nullptr, bins_ * sizeof(std::int32_t));
    if (!bins.ok()) return bins.status();

    detail::GpuKernel kernel{*std::move(program), {*data, *bins}};
    if (config != nullptr) {
      // `groups` groups of wg (paper point 8 x 256): each group privatizes
      // into __local bins; the flush stage issues only groups x bins
      // global atomics.
      const auto wg = static_cast<std::uint64_t>(config->Get("wg", 256));
      kernel.args.push_back(static_cast<std::int32_t>(n_));
      kernel.global[0] =
          static_cast<std::uint64_t>(config->Get("groups", 8)) * wg;
      kernel.local[0] = wg;
    } else {
      kernel.global[0] = n_;
    }
    kernel.args.push_back(static_cast<std::int32_t>(bins_));
    StatusOr<RunOutcome> outcome = detail::RunGpuKernels(devices, {&kernel, 1});
    if (!outcome.ok()) return outcome;

    std::vector<std::int32_t> result(bins_, 0);
    MALI_RETURN_IF_ERROR(detail::ReadGpuBuffer(
        ctx, **bins, result.data(), result.size() * sizeof(std::int32_t)));
    detail::FinishValidation(&*outcome, BinError(result), 0.0);
    return outcome;
  }

  std::uint32_t n_;
  std::uint32_t bins_;
  FpBuffer data_;
  std::vector<std::int32_t> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeHist(const ProblemSizes& sizes) {
  return std::make_unique<HistBenchmark>(sizes);
}

}  // namespace malisim::hpc

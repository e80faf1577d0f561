// Atomic Monte-Carlo Dynamics (amcd): independent Markov-chain Monte-Carlo
// simulations with Metropolis acceptance (paper §IV-A: "initial atom
// coordinates are provided and a number of randomly chosen displacements
// are applied to randomly selected atoms which are accepted or rejected
// using the Metropolis method").
//
// Each work-item owns one chain (an independent simulation) — the
// divergence-free execution showcase. The kernel embeds a xorshift32 PRNG
// so all four versions replay the identical random sequence; validation
// compares final coordinates against a host replica that performs the same
// IEEE operations in the same order.
//
// In double precision the kernel's shape — an FP64 exp() inside a loop with
// data-dependent control flow — triggers the modelled ARM compiler erratum:
// clBuildProgram fails (paper §V-A), so both GPU versions are absent from
// the DP figures, exactly as in Fig. 2(b)-4(b).
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

constexpr double kBox = 10.0;       // initial coordinate range
constexpr double kDelta = 0.5;      // max displacement per move
constexpr double kEps = 0.01;       // potential softening
constexpr double kNegInvT = -2.0;   // -1/temperature

class AmcdBenchmark final : public Benchmark {
 public:
  explicit AmcdBenchmark(const ProblemSizes& sizes)
      : chains_(sizes.amcd_chains),
        atoms_(sizes.amcd_atoms),
        steps_(sizes.amcd_steps) {}

  std::string name() const override { return "amcd"; }
  std::string description() const override {
    return "Metropolis Monte-Carlo atom dynamics (independent chains)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    const std::size_t total = static_cast<std::size_t>(chains_) * atoms_;
    init_x_ = FpBuffer(fp64, total);
    init_y_ = FpBuffer(fp64, total);
    init_z_ = FpBuffer(fp64, total);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < total; ++i) {
      init_x_.Set(i, rng.NextDouble(0.0, kBox));
      init_y_.Set(i, rng.NextDouble(0.0, kBox));
      init_z_.Set(i, rng.NextDouble(0.0, kBox));
    }
    // Reference: replay every chain on the host with identical arithmetic.
    ref_x_.assign(total, 0.0);
    ref_y_.assign(total, 0.0);
    ref_z_.assign(total, 0.0);
    if (fp64) {
      ComputeReference<double>();
    } else {
      ComputeReference<float>();
    }
    return Status::Ok();
  }

  // §III knobs: inner-j unroll factor and work-group size. In FP64 every
  // candidate hits the modelled compiler erratum at Build(), so the whole
  // search returns NotFound — the tuner-level analogue of the missing
  // DP bars in Fig. 2(b).
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"unroll", {1, 2, 4}}, {"wg", {32, 64, 128}}};
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("unroll", 2);
    config.Set("wg", 64);
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

  // --- host replica (per-type, operation-for-operation as the kernel) ---
  template <typename T>
  void ComputeReference() {
    const std::size_t total = static_cast<std::size_t>(chains_) * atoms_;
    std::vector<T> px(total), py(total), pz(total);
    for (std::size_t i = 0; i < total; ++i) {
      px[i] = static_cast<T>(init_x_.Get(i));
      py[i] = static_cast<T>(init_y_.Get(i));
      pz[i] = static_cast<T>(init_z_.Get(i));
    }
    for (std::uint32_t c = 0; c < chains_; ++c) {
      SimulateChain<T>(c, px.data(), py.data(), pz.data());
    }
    for (std::size_t i = 0; i < total; ++i) {
      ref_x_[i] = static_cast<double>(px[i]);
      ref_y_[i] = static_cast<double>(py[i]);
      ref_z_[i] = static_cast<double>(pz[i]);
    }
  }

  template <typename T>
  void SimulateChain(std::uint32_t chain, T* px, T* py, T* pz) const {
    std::uint32_t s = (chain + 1) * 0x9E3779B9u;
    auto draw = [&]() {
      s ^= s << 13;
      s ^= s >> 17;
      s ^= s << 5;
      return static_cast<std::int32_t>(s & 0x7fffffffu);
    };
    const T inv31 = static_cast<T>(1.0 / 2147483648.0);
    auto draw_u = [&]() { return static_cast<T>(draw()) * inv31; };
    const T half = static_cast<T>(0.5);
    const T delta = static_cast<T>(kDelta);
    const T eps = static_cast<T>(kEps);
    const T neg_inv_t = static_cast<T>(kNegInvT);
    const std::size_t base = static_cast<std::size_t>(chain) * atoms_;

    for (std::uint32_t t = 0; t < steps_; ++t) {
      const std::int32_t k = draw() % static_cast<std::int32_t>(atoms_);
      const T dx = (draw_u() - half) * delta;
      const T dy = (draw_u() - half) * delta;
      const T dz = (draw_u() - half) * delta;
      const std::size_t ck = base + static_cast<std::size_t>(k);
      const T oldx = px[ck], oldy = py[ck], oldz = pz[ck];
      const T newx = oldx + dx, newy = oldy + dy, newz = oldz + dz;
      T de = static_cast<T>(0);
      for (std::int32_t j = 0; j < static_cast<std::int32_t>(atoms_); ++j) {
        if (j != k) {
          const std::size_t cj = base + static_cast<std::size_t>(j);
          const T xj = px[cj], yj = py[cj], zj = pz[cj];
          // phi(r) = rsqrt(|r|^2 + eps), evaluated as in the kernel:
          // separate mul/add statements, no fma contraction.
          const T ox = oldx - xj, oy = oldy - yj, oz = oldz - zj;
          T r2o = ox * ox;
          r2o = r2o + oy * oy;
          r2o = r2o + oz * oz;
          r2o = r2o + eps;
          const T po = static_cast<T>(1) / std::sqrt(r2o);
          const T nx = newx - xj, ny = newy - yj, nz = newz - zj;
          T r2n = nx * nx;
          r2n = r2n + ny * ny;
          r2n = r2n + nz * nz;
          r2n = r2n + eps;
          const T pn = static_cast<T>(1) / std::sqrt(r2n);
          const T term = pn - po;
          de = de + term;
        }
      }
      const T u = draw_u();
      const T p = std::exp(de * neg_inv_t);
      const bool accept = de < static_cast<T>(0) || u < p;
      if (accept) {
        px[ck] = newx;
        py[ck] = newy;
        pz[ck] = newz;
      }
    }
  }

  // --- kernel ---
  /// Emits the full per-chain simulation with `chain` as the chain index.
  void EmitChain(KernelBuilder& kb, Val chain, kir::BufferRef px,
                 kir::BufferRef py, kir::BufferRef pz, int unroll_j) const {
    const kir::Type FT = kir::FloatType(fp64_);
    Val n_atoms = kb.ConstI(kir::I32(), atoms_);
    Val mask = kb.ConstI(kir::I32(), 0x7fffffff);
    Val inv31 = detail::FConst(kb, fp64_, 1.0 / 2147483648.0);
    Val half = detail::FConst(kb, fp64_, 0.5);
    Val delta = detail::FConst(kb, fp64_, kDelta);
    Val eps = detail::FConst(kb, fp64_, kEps);
    Val neg_inv_t = detail::FConst(kb, fp64_, kNegInvT);
    Val fzero = detail::FConst(kb, fp64_, 0.0);
    Val base = kb.Binary(Opcode::kMul, chain, n_atoms);

    Val s = kb.Var(kir::I32(), "rng");
    kb.Assign(s, kb.Binary(Opcode::kMul,
                           kb.Binary(Opcode::kAdd, chain, kb.ConstI(kir::I32(), 1)),
                           kb.ConstI(kir::I32(), 0x9E3779B9LL)));
    auto draw = [&]() {
      kb.Assign(s, s ^ kb.Shl(s, 13));
      kb.Assign(s, s ^ kb.Shr(s, 17));
      kb.Assign(s, s ^ kb.Shl(s, 5));
      return s & mask;
    };
    auto draw_u = [&]() { return kb.Convert(draw(), FT.scalar) * inv31; };

    Val steps = kb.ConstI(kir::I32(), steps_);
    kb.For("t", kb.ConstI(kir::I32(), 0), steps, 1, [&](Val) {
      Val k = kb.Binary(Opcode::kIRem, draw(), n_atoms);
      Val dx = (draw_u() - half) * delta;
      Val dy = (draw_u() - half) * delta;
      Val dz = (draw_u() - half) * delta;
      Val ck = kb.Binary(Opcode::kAdd, base, k);
      Val oldx = kb.Load(px, ck);
      Val oldy = kb.Load(py, ck);
      Val oldz = kb.Load(pz, ck);
      Val newx = oldx + dx;
      Val newy = oldy + dy;
      Val newz = oldz + dz;
      Val de = kb.Var(FT, "de");
      kb.Assign(de, fzero);

      auto body = [&](Val j) {
        kb.If(kb.CmpNe(j, k), [&] {
          Val cj = kb.Binary(Opcode::kAdd, base, j);
          Val xj = kb.Load(px, cj);
          Val yj = kb.Load(py, cj);
          Val zj = kb.Load(pz, cj);
          Val ox = oldx - xj, oy = oldy - yj, oz = oldz - zj;
          Val r2o = ox * ox;
          r2o = r2o + oy * oy;
          r2o = r2o + oz * oz;
          r2o = r2o + eps;
          Val po = kb.Rsqrt(r2o);
          Val nx = newx - xj, ny = newy - yj, nz = newz - zj;
          Val r2n = nx * nx;
          r2n = r2n + ny * ny;
          r2n = r2n + nz * nz;
          r2n = r2n + eps;
          Val pn = kb.Rsqrt(r2n);
          Val term = pn - po;
          kb.Assign(de, de + term);
        });
      };
      if (unroll_j > 1) {
        kb.ForUnrolled("j", kb.ConstI(kir::I32(), 0), n_atoms, 1, unroll_j, body);
      } else {
        kb.For("j", kb.ConstI(kir::I32(), 0), n_atoms, 1, body);
      }

      Val u = draw_u();
      Val p = kb.Exp(de * neg_inv_t);
      Val accept = kb.CmpLt(de, fzero) | kb.CmpLt(u, p);
      kb.If(accept, [&] {
        kb.Store(px, ck, newx);
        kb.Store(py, ck, newy);
        kb.Store(pz, ck, newz);
      });
    });
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("amcd_cpu");
    auto px = kb.ArgBuffer("px", ft(), ArgKind::kBufferRW);
    auto py = kb.ArgBuffer("py", ft(), ArgKind::kBufferRW);
    auto pz = kb.ArgBuffer("pz", ft(), ArgKind::kBufferRW);
    Val n = kb.ArgScalar("n_chains", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    kb.For("c", chunk.start, chunk.end, 1,
           [&](Val c) { EmitChain(kb, c, px, py, pz, /*unroll_j=*/1); });
    return kb.Build();
  }

  /// The naive kernel (`config` null) or the optimized one: §III-C
  /// qualifiers and the j loop unrolled by the config's factor.
  StatusOr<kir::Program> BuildGpuKernel(const sim::TuningConfig* config) const {
    const bool opt = config != nullptr;
    KernelBuilder kb(opt ? "amcd_cl_opt" : "amcd_cl");
    auto px = kb.ArgBuffer("px", ft(), ArgKind::kBufferRW, opt, false);
    auto py = kb.ArgBuffer("py", ft(), ArgKind::kBufferRW, opt, false);
    auto pz = kb.ArgBuffer("pz", ft(), ArgKind::kBufferRW, opt, false);
    EmitChain(kb, kb.GlobalId(0), px, py, pz,
              opt ? static_cast<int>(config->Get("unroll", 2)) : 1);
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) override {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    const std::size_t total = static_cast<std::size_t>(chains_) * atoms_;
    FpBuffer wx(fp64_, total), wy(fp64_, total), wz(fp64_, total);
    CopyInit(&wx, &wy, &wz);
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{wx.data(), wx.bytes()}, {wy.data(), wy.bytes()}, {wz.data(), wz.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(chains_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, PositionsError(wx, wy, wz), Tol());
    return outcome;
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices,
                                     const sim::TuningConfig* config) override {
    StatusOr<kir::Program> program = BuildGpuKernel(config);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;
    const std::size_t total = static_cast<std::size_t>(chains_) * atoms_;
    FpBuffer wx(fp64_, total), wy(fp64_, total), wz(fp64_, total);
    CopyInit(&wx, &wy, &wz);

    auto bx = detail::MakeGpuBuffer(ctx, wx.data(), wx.bytes());
    if (!bx.ok()) return bx.status();
    auto by = detail::MakeGpuBuffer(ctx, wy.data(), wy.bytes());
    if (!by.ok()) return by.status();
    auto bz = detail::MakeGpuBuffer(ctx, wz.data(), wz.bytes());
    if (!bz.ok()) return bz.status();

    // In FP64 the build inside RunGpuKernels is where the modelled compiler
    // erratum fires (CL_BUILD_PROGRAM_FAILURE) — the caller reports the
    // missing bar.
    detail::GpuKernel kernel{*std::move(program), {*bx, *by, *bz}};
    kernel.global[0] = chains_;
    if (config != nullptr) {
      kernel.local[0] = detail::TunedLocalSize(
          chains_, static_cast<std::uint64_t>(config->Get("wg", 64)));
    }
    StatusOr<RunOutcome> outcome = detail::RunGpuKernels(devices, {&kernel, 1});
    if (!outcome.ok()) return outcome;

    MALI_RETURN_IF_ERROR(detail::ReadGpuBuffer(ctx, **bx, wx.data(), wx.bytes()));
    MALI_RETURN_IF_ERROR(detail::ReadGpuBuffer(ctx, **by, wy.data(), wy.bytes()));
    MALI_RETURN_IF_ERROR(detail::ReadGpuBuffer(ctx, **bz, wz.data(), wz.bytes()));
    detail::FinishValidation(&*outcome, PositionsError(wx, wy, wz), Tol());
    return outcome;
  }

  void CopyInit(FpBuffer* wx, FpBuffer* wy, FpBuffer* wz) const {
    for (std::size_t i = 0; i < wx->size(); ++i) {
      wx->Set(i, init_x_.Get(i));
      wy->Set(i, init_y_.Get(i));
      wz->Set(i, init_z_.Get(i));
    }
  }

  double PositionsError(const FpBuffer& wx, const FpBuffer& wy,
                        const FpBuffer& wz) const {
    double err = detail::MaxRelError(wx, ref_x_);
    err = std::max(err, detail::MaxRelError(wy, ref_y_));
    err = std::max(err, detail::MaxRelError(wz, ref_z_));
    return err;
  }

  double Tol() const { return fp64_ ? 1e-12 : 1e-4; }

  std::uint32_t chains_, atoms_, steps_;
  FpBuffer init_x_, init_y_, init_z_;
  std::vector<double> ref_x_, ref_y_, ref_z_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeAmcd(const ProblemSizes& sizes) {
  return std::make_unique<AmcdBenchmark>(sizes);
}

}  // namespace malisim::hpc

// Sparse Vector-Matrix Multiplication (spmv): y = A x with A in CSR form.
//
// Paper §IV-A: "useful as metric to measure performance in cases of load
// imbalance"; §V-A: "spmv ... with large working sets and little
// computation ... our OpenCL versions do not take advantage of special data
// structures and for this reason spmv can only partially exploit the
// available bandwidth" — it is the one benchmark whose optimized version
// stays slow (1.25x).
//
// The row-length distribution is deliberately skewed (a tail of heavy rows)
// to create the load imbalance the paper calls out.
#include <algorithm>
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

class SpmvBenchmark final : public Benchmark {
 public:
  explicit SpmvBenchmark(const ProblemSizes& sizes)
      : rows_(sizes.spmv_rows), avg_nnz_(sizes.spmv_avg_nnz_per_row) {}

  std::string name() const override { return "spmv"; }
  std::string description() const override {
    return "CSR sparse matrix-vector product (load imbalance, bandwidth)";
  }

  Status Setup(bool fp64, std::uint64_t seed) override {
    fp64_ = fp64;
    seed_ = seed;
    Xoshiro256 rng(seed);

    row_ptr_.assign(rows_ + 1, 0);
    std::vector<std::uint32_t> row_nnz(rows_);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      // 90% light rows, 10% heavy rows (~5x the average): load imbalance.
      const bool heavy = rng.NextDouble() < 0.10;
      const std::uint32_t lo = heavy ? avg_nnz_ * 3 : 2;
      const std::uint32_t hi = heavy ? avg_nnz_ * 7 : avg_nnz_;
      row_nnz[r] = lo + static_cast<std::uint32_t>(rng.NextBounded(hi - lo + 1));
    }
    for (std::uint32_t r = 0; r < rows_; ++r) {
      row_ptr_[r + 1] = row_ptr_[r] + static_cast<std::int32_t>(row_nnz[r]);
    }
    const std::uint32_t nnz = static_cast<std::uint32_t>(row_ptr_[rows_]);

    col_idx_.resize(nnz);
    vals_ = FpBuffer(fp64, nnz);
    x_ = FpBuffer(fp64, rows_);
    for (std::uint32_t i = 0; i < rows_; ++i) x_.Set(i, rng.NextDouble(-1, 1));
    for (std::uint32_t r = 0; r < rows_; ++r) {
      for (std::int32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        col_idx_[static_cast<std::size_t>(k)] =
            static_cast<std::int32_t>(rng.NextBounded(rows_));
        vals_.Set(static_cast<std::size_t>(k), rng.NextDouble(-1, 1));
      }
      std::sort(col_idx_.begin() + row_ptr_[r], col_idx_.begin() + row_ptr_[r + 1]);
    }

    // Reference in the run precision's value space but double accumulation.
    ref_.assign(rows_, 0.0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::int32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += vals_.Get(static_cast<std::size_t>(k)) *
               x_.Get(static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]));
      }
      ref_[r] = acc;
    }
    return Status::Ok();
  }

  // §III knobs: value/column vector width of the main row loop and the
  // work-group size. The x gathers stay scalar at every width (see
  // BuildGpuKernel), so the win from vec is modest — matching §V-A.
  sim::TuningSpace TunableSpace() const override {
    sim::TuningSpace space;
    space.axes = {{"vec", {1, 2, 4}}, {"wg", {32, 64, 128}}};
    return space;
  }

  sim::TuningConfig PaperOptConfig() const override {
    sim::TuningConfig config;
    config.Set("vec", 4);
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
  double tol() const { return fp64_ ? 1e-10 : 2e-3; }

  /// Emits the scalar row kernel body: y[row] = sum over the row's entries.
  void EmitRowBody(KernelBuilder& kb, kir::BufferRef row_ptr,
                   kir::BufferRef col_idx, kir::BufferRef vals,
                   kir::BufferRef x, kir::BufferRef y, Val row) const {
    Val begin = kb.Load(row_ptr, row);
    Val end = kb.Load(row_ptr, row, 1);
    Val acc = kb.Var(kir::FloatType(fp64_), "acc");
    kb.Assign(acc, detail::FConst(kb, fp64_, 0.0));
    kb.For("k", begin, end, 1, [&](Val k) {
      Val col = kb.Load(col_idx, k);
      kb.Assign(acc, kb.Fma(kb.Load(vals, k), kb.Load(x, col), acc));
    });
    kb.Store(y, row, acc);
  }

  StatusOr<kir::Program> BuildCpuKernel() const {
    KernelBuilder kb("spmv_cpu");
    auto row_ptr = kb.ArgBuffer("row_ptr", kir::ScalarType::kI32, ArgKind::kBufferRO);
    auto col_idx = kb.ArgBuffer("col_idx", kir::ScalarType::kI32, ArgKind::kBufferRO);
    auto vals = kb.ArgBuffer("vals", ft(), ArgKind::kBufferRO);
    auto x = kb.ArgBuffer("x", ft(), ArgKind::kBufferRO);
    auto y = kb.ArgBuffer("y", ft(), ArgKind::kBufferWO);
    Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
    detail::Chunk chunk = detail::ThreadChunk(kb, n);
    kb.For("row", chunk.start, chunk.end, 1, [&](Val row) {
      EmitRowBody(kb, row_ptr, col_idx, vals, x, y, row);
    });
    return kb.Build();
  }

  /// The naive kernel (`config` null: the scalar row body) or the
  /// optimized one with the §III-C qualifiers. At vec > 1 the main row loop
  /// vloads `vec` values and column indices; the x gathers stay scalar (CSR
  /// gives no better option without the special data structures the paper
  /// explicitly does not use), which is why the gain is modest. Remainder
  /// entries are handled by a scalar tail loop.
  StatusOr<kir::Program> BuildGpuKernel(const sim::TuningConfig* config) const {
    const bool opt = config != nullptr;
    const int vec = opt ? static_cast<int>(config->Get("vec", 4)) : 1;
    KernelBuilder kb(opt ? "spmv_cl_opt" : "spmv_cl");
    auto row_ptr = kb.ArgBuffer("row_ptr", kir::ScalarType::kI32,
                                ArgKind::kBufferRO, opt, opt);
    auto col_idx = kb.ArgBuffer("col_idx", kir::ScalarType::kI32,
                                ArgKind::kBufferRO, opt, opt);
    auto vals = kb.ArgBuffer("vals", ft(), ArgKind::kBufferRO, opt, opt);
    auto x = kb.ArgBuffer("x", ft(), ArgKind::kBufferRO, opt, opt);
    auto y = kb.ArgBuffer("y", ft(), ArgKind::kBufferWO, opt, false);
    Val row = kb.GlobalId(0);
    if (vec <= 1) {
      EmitRowBody(kb, row_ptr, col_idx, vals, x, y, row);
      return kb.Build();
    }
    Val begin = kb.Load(row_ptr, row);
    Val end = kb.Load(row_ptr, row, 1);
    Val span = kb.Binary(Opcode::kSub, end, begin);
    Val rem = kb.Binary(Opcode::kIRem, span, kb.ConstI(kir::I32(), vec));
    Val main_end = kb.Binary(Opcode::kSub, end, rem);

    const auto lanes = static_cast<std::uint8_t>(vec);
    Val accv = kb.Var(kir::FloatType(fp64_, lanes), "accv");
    kb.Assign(accv, detail::FConst(kb, fp64_, 0.0, lanes));
    kb.For("k", begin, main_end, vec, [&](Val k) {
      Val vv = kb.Load(vals, k, 0, lanes);
      Val cv = kb.Load(col_idx, k, 0, lanes);
      Val g = kb.Var(kir::FloatType(fp64_, lanes), "gather");
      kb.Assign(g, detail::FConst(kb, fp64_, 0.0, lanes));
      for (int l = 0; l < vec; ++l) {
        Val xs = kb.Load(x, kb.Extract(cv, l));
        g = kb.Insert(g, l, xs);
      }
      kb.Assign(accv, kb.Fma(vv, g, accv));
    });
    Val acc = kb.Var(kir::FloatType(fp64_), "acc");
    kb.Assign(acc, kb.VSum(accv));
    kb.For("k2", main_end, end, 1, [&](Val k) {
      Val col = kb.Load(col_idx, k);
      kb.Assign(acc, kb.Fma(kb.Load(vals, k), kb.Load(x, col), acc));
    });
    kb.Store(y, row, acc);
    return kb.Build();
  }

  StatusOr<RunOutcome> RunCpuVariant(Devices& devices, int threads) override {
    StatusOr<kir::Program> program = BuildCpuKernel();
    if (!program.ok()) return program.status();
    FpBuffer y(fp64_, rows_);
    kir::LaunchConfig config;
    config.global_size = {static_cast<std::uint64_t>(threads), 1, 1};
    StatusOr<RunOutcome> outcome = detail::RunCpu(
        devices, *program, config,
        {{row_ptr_.data(), row_ptr_.size() * 4},
         {col_idx_.data(), col_idx_.size() * 4},
         {vals_.data(), vals_.bytes()},
         {x_.data(), x_.bytes()},
         {y.data(), y.bytes()}},
        {kir::ScalarValue::I32V(static_cast<std::int32_t>(rows_))}, threads);
    if (!outcome.ok()) return outcome;
    detail::FinishValidation(&*outcome, detail::MaxRelError(y, ref_), tol());
    return outcome;
  }

  StatusOr<RunOutcome> RunGpuVariant(Devices& devices,
                                     const sim::TuningConfig* config) override {
    StatusOr<kir::Program> program = BuildGpuKernel(config);
    if (!program.ok()) return program.status();
    ocl::Context& ctx = *devices.gpu;

    auto row_ptr =
        detail::MakeGpuBuffer(ctx, row_ptr_.data(), row_ptr_.size() * 4);
    if (!row_ptr.ok()) return row_ptr.status();
    auto col_idx =
        detail::MakeGpuBuffer(ctx, col_idx_.data(), col_idx_.size() * 4);
    if (!col_idx.ok()) return col_idx.status();
    auto vals = detail::MakeGpuBuffer(ctx, vals_.data(), vals_.bytes());
    if (!vals.ok()) return vals.status();
    auto x = detail::MakeGpuBuffer(ctx, x_.data(), x_.bytes());
    if (!x.ok()) return x.status();
    auto y = detail::MakeGpuBuffer(ctx, nullptr, x_.bytes());
    if (!y.ok()) return y.status();

    detail::GpuKernel kernel{*std::move(program),
                             {*row_ptr, *col_idx, *vals, *x, *y}};
    kernel.global[0] = rows_;
    if (config != nullptr) {
      kernel.local[0] = detail::TunedLocalSize(
          rows_, static_cast<std::uint64_t>(config->Get("wg", 64)));
    }
    StatusOr<RunOutcome> outcome = detail::RunGpuKernels(devices, {&kernel, 1});
    if (!outcome.ok()) return outcome;

    FpBuffer result(fp64_, rows_);
    MALI_RETURN_IF_ERROR(
        detail::ReadGpuBuffer(ctx, **y, result.data(), result.bytes()));
    detail::FinishValidation(&*outcome, detail::MaxRelError(result, ref_), tol());
    return outcome;
  }

  std::uint32_t rows_;
  std::uint32_t avg_nnz_;
  std::vector<std::int32_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  FpBuffer vals_, x_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Benchmark> MakeSpmv(const ProblemSizes& sizes) {
  return std::make_unique<SpmvBenchmark>(sizes);
}

}  // namespace malisim::hpc

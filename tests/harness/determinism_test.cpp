// Determinism contract of the parallel simulation engine: for any host
// thread count, output buffers, operation counts, and modelled
// cycles/power/energy are BIT-identical to the serial reference engine
// (sim_threads = 1). Cache timing is order-dependent, so the parallel
// engine executes work-groups concurrently but replays their recorded
// memory-event streams into the cache models in the serial engine's
// canonical order; this suite is the proof.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_options.h"
#include "cpu/a15_device.h"
#include "harness/experiment.h"
#include "kir/builder.h"
#include "ocl/runtime.h"

namespace malisim::harness {
namespace {

using kir::ArgKind;
using kir::KernelBuilder;
using kir::Opcode;
using kir::ScalarType;
using kir::Val;

ExperimentConfig QuickConfig(bool fp64, int sim_threads) {
  ExperimentConfig config;
  config.fp64 = fp64;
  config.repetitions = 5;
  config.sim_threads = sim_threads;
  config.sizes.spmv_rows = 512;
  config.sizes.vecop_n = 1 << 13;
  config.sizes.hist_n = 1 << 13;
  config.sizes.stencil_dim = 16;
  config.sizes.red_n = 1 << 13;
  config.sizes.amcd_chains = 32;
  config.sizes.amcd_atoms = 12;
  config.sizes.amcd_steps = 8;
  config.sizes.nbody_n = 128;
  config.sizes.conv_dim = 64;
  config.sizes.dmmm_n = 32;
  return config;
}

/// Asserts every per-variant metric of `a` and `b` is bit-identical.
void ExpectBitIdentical(const BenchmarkResults& a, const BenchmarkResults& b) {
  for (hpc::Variant v : hpc::kAllVariants) {
    SCOPED_TRACE(std::string(hpc::VariantName(v)));
    const VariantResult& ra = a.Get(v);
    const VariantResult& rb = b.Get(v);
    ASSERT_EQ(ra.available, rb.available);
    if (!ra.available) {
      EXPECT_EQ(ra.unavailable_reason, rb.unavailable_reason);
      continue;
    }
    // EXPECT_EQ on doubles is exact equality — deliberately no tolerance.
    EXPECT_EQ(ra.seconds, rb.seconds);
    EXPECT_EQ(ra.power_mean_w, rb.power_mean_w);
    EXPECT_EQ(ra.power_stddev_w, rb.power_stddev_w);
    EXPECT_EQ(ra.energy_j, rb.energy_j);
    EXPECT_EQ(ra.validated, rb.validated);
    EXPECT_EQ(ra.max_rel_error, rb.max_rel_error);
    // Every modelled statistic (per-core cycles, miss counts, ...) too.
    const std::vector<StatRegistry::Entry> ea = ra.stats.Entries();
    const std::vector<StatRegistry::Entry> eb = rb.stats.Entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].name, eb[i].name);
      EXPECT_EQ(ea[i].value, eb[i].value) << ea[i].name;
    }
  }
}

struct Case {
  const char* benchmark;
  bool fp64;
};

class EngineDeterminismTest : public ::testing::TestWithParam<Case> {};

TEST_P(EngineDeterminismTest, ParallelEngineMatchesSerialBitwise) {
  const Case c = GetParam();
  ExperimentRunner serial(QuickConfig(c.fp64, /*sim_threads=*/1));
  ExperimentRunner parallel(QuickConfig(c.fp64, /*sim_threads=*/4));
  auto rs = serial.RunBenchmark(c.benchmark);
  auto rp = parallel.RunBenchmark(c.benchmark);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ExpectBitIdentical(*rs, *rp);
}

TEST_P(EngineDeterminismTest, TwoSerialRunsWithSameSeedAreIdentical) {
  const Case c = GetParam();
  ExperimentRunner first(QuickConfig(c.fp64, /*sim_threads=*/1));
  ExperimentRunner second(QuickConfig(c.fp64, /*sim_threads=*/1));
  auto r1 = first.RunBenchmark(c.benchmark);
  auto r2 = second.RunBenchmark(c.benchmark);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ExpectBitIdentical(*r1, *r2);
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, EngineDeterminismTest,
    ::testing::Values(Case{"vecop", false}, Case{"vecop", true},
                      Case{"hist", false}, Case{"hist", true},
                      Case{"dmmm", false}, Case{"dmmm", true}),
    [](const ::testing::TestParamInfo<Case>& case_info) {
      return std::string(case_info.param.benchmark) +
             (case_info.param.fp64 ? "_fp64" : "_fp32");
    });

TEST(EngineDeterminismTest, ParallelRunAllMatchesSerialBitwise) {
  // RunAll farms whole benchmarks across workers when sim_threads > 1; the
  // per-(benchmark, variant) meter seeding keeps every cell's numbers
  // independent of scheduling.
  ExperimentConfig serial_config = QuickConfig(false, 1);
  ExperimentConfig parallel_config = QuickConfig(false, 4);
  auto rs = ExperimentRunner(serial_config).RunAll();
  auto rp = ExperimentRunner(parallel_config).RunAll();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_EQ(rs->size(), rp->size());
  for (std::size_t i = 0; i < rs->size(); ++i) {
    SCOPED_TRACE((*rs)[i].name);
    ASSERT_EQ((*rs)[i].name, (*rp)[i].name);
    ExpectBitIdentical((*rs)[i], (*rp)[i]);
  }
}

// ---------------------------------------------------------------------------
// Direct-runtime cases: element-wise, hist-like (atomics + __local +
// barriers), and dmmm-like (tiled, __local, barriers) kernels on the GPU
// context, plus the CPU device path — comparing raw output buffer bytes and
// modelled event times between thread counts.
// ---------------------------------------------------------------------------

kir::Program ElementwiseKernel() {
  KernelBuilder kb("saxpyish");
  auto x = kb.ArgBuffer("x", ScalarType::kF32, ArgKind::kBufferRO);
  auto y = kb.ArgBuffer("y", ScalarType::kF32, ArgKind::kBufferRW);
  Val gid = kb.GlobalId(0);
  kb.Store(y, gid,
           kb.Fma(kb.Load(x, gid), kb.ConstF(kir::F32(), 1.5),
                  kb.Load(y, gid)));
  return *kb.Build();
}

kir::Program HistLikeKernel() {
  KernelBuilder kb("hist_like");
  auto data = kb.ArgBuffer("data", ScalarType::kI32, ArgKind::kBufferRO);
  auto bins = kb.ArgBuffer("bins", ScalarType::kI32, ArgKind::kBufferRW);
  auto local_bins = kb.LocalArray("local_bins", ScalarType::kI32, 16);
  Val lid = kb.LocalId(0);
  Val zero = kb.ConstI(kir::I32(), 0);
  Val one = kb.ConstI(kir::I32(), 1);
  // Work-group size is 16 == bin count; each item owns one bin.
  kb.Store(local_bins, lid, zero);
  kb.Barrier();
  Val bucket = kb.Binary(Opcode::kAnd, kb.Load(data, kb.GlobalId(0)),
                         kb.ConstI(kir::I32(), 15));
  kb.AtomicAdd(local_bins, bucket, one);
  kb.Barrier();
  kb.AtomicAdd(bins, lid, kb.Load(local_bins, lid));
  return *kb.Build();
}

kir::Program TiledSumKernel() {
  KernelBuilder kb("tile_sum");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  auto tile = kb.LocalArray("tile", ScalarType::kF32, 32);
  Val lid = kb.LocalId(0);
  // Stage through __local with barriers (dmmm-style tiling skeleton):
  // cooperative load, barrier, neighbour read, barrier.
  kb.Store(tile, lid, kb.Load(in, kb.GlobalId(0)));
  kb.Barrier();
  Val neighbour =
      kb.Binary(Opcode::kAnd, kb.Binary(Opcode::kAdd, lid,
                                        kb.ConstI(kir::I32(), 1)),
                kb.ConstI(kir::I32(), 31));
  kb.Store(out, kb.GlobalId(0),
           kb.Load(tile, lid) + kb.Load(tile, neighbour));
  return *kb.Build();
}

struct GpuRun {
  std::vector<std::byte> bytes;  // output buffer contents
  double seconds = 0.0;
};

GpuRun RunOnGpuContext(const kir::Program& program, int threads,
                       std::uint64_t n, std::uint64_t local,
                       std::uint64_t out_bytes) {
  ocl::Context ctx;
  SimOptions options;
  options.threads = threads;
  ctx.set_sim_options(options);

  std::vector<kir::Program> kernels;
  kernels.push_back(program);
  auto prog = ctx.CreateProgram(std::move(kernels));
  EXPECT_TRUE(prog->Build().ok()) << prog->build_log();
  auto kernel = ctx.CreateKernel(prog, program.name);
  EXPECT_TRUE(kernel.ok());

  const std::uint64_t in_bytes = n * 4;
  auto in_buf = ctx.CreateBuffer(ocl::kMemReadWrite | ocl::kMemAllocHostPtr,
                                 in_bytes);
  auto out_buf = ctx.CreateBuffer(ocl::kMemReadWrite | ocl::kMemAllocHostPtr,
                                  out_bytes);
  EXPECT_TRUE(in_buf.ok() && out_buf.ok());
  // Deterministic input pattern; works as both f32 data and i32 buckets.
  auto* in_words = reinterpret_cast<std::uint32_t*>((*in_buf)->device_storage());
  for (std::uint64_t i = 0; i < n; ++i) {
    in_words[i] = static_cast<std::uint32_t>((i * 2654435761u) >> 8) & 0xffff;
  }
  std::memset((*out_buf)->device_storage(), 0, out_bytes);

  EXPECT_TRUE((*kernel)->SetArgBuffer(0, *in_buf).ok());
  EXPECT_TRUE((*kernel)->SetArgBuffer(1, *out_buf).ok());
  const std::uint64_t global[1] = {n};
  const std::uint64_t local_size[1] = {local};
  auto event = ctx.queue().EnqueueNDRange(**kernel, 1, global, local_size);
  EXPECT_TRUE(event.ok()) << event.status().ToString();

  GpuRun result;
  result.seconds = event.ok() ? event->seconds : -1.0;
  const auto* out_ptr =
      reinterpret_cast<const std::byte*>((*out_buf)->device_storage());
  result.bytes.assign(out_ptr, out_ptr + out_bytes);
  return result;
}

struct GpuCase {
  const char* name;
  kir::Program (*build)();
  std::uint64_t n;
  std::uint64_t local;
  std::uint64_t out_bytes;
};

class GpuKernelDeterminismTest : public ::testing::TestWithParam<GpuCase> {};

TEST_P(GpuKernelDeterminismTest, OutputAndTimingBitIdenticalAcrossThreads) {
  const GpuCase c = GetParam();
  const kir::Program program = c.build();
  const GpuRun serial =
      RunOnGpuContext(program, /*threads=*/1, c.n, c.local, c.out_bytes);
  for (const int threads : {2, 4, 7}) {
    SCOPED_TRACE(threads);
    const GpuRun parallel =
        RunOnGpuContext(program, threads, c.n, c.local, c.out_bytes);
    EXPECT_EQ(serial.bytes, parallel.bytes);
    EXPECT_EQ(serial.seconds, parallel.seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GpuKernelDeterminismTest,
    ::testing::Values(
        GpuCase{"elementwise", &ElementwiseKernel, 1 << 12, 64, (1 << 12) * 4},
        GpuCase{"hist_like", &HistLikeKernel, 1 << 12, 16, 16 * 4},
        GpuCase{"tiled", &TiledSumKernel, 1 << 12, 32, (1 << 12) * 4}),
    [](const ::testing::TestParamInfo<GpuCase>& case_info) {
      return case_info.param.name;
    });

TEST(CpuDeviceDeterminismTest, OutputAndTimingBitIdenticalAcrossThreads) {
  const kir::Program program = ElementwiseKernel();
  const std::uint64_t n = 1 << 12;
  kir::LaunchConfig config;
  config.global_size = {n, 1, 1};
  config.local_size = {64, 1, 1};

  std::vector<float> ref_out;
  double ref_seconds = 0.0;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    std::vector<float> x(n), y(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      x[i] = 0.5f + 0.001f * static_cast<float>(i);
      y[i] = 1.0f - 0.002f * static_cast<float>(i);
    }
    cpu::CortexA15Device device;
    SimOptions options;
    options.threads = threads;
    device.set_sim_options(options);
    kir::Bindings b;
    b.buffers = {
        {reinterpret_cast<std::byte*>(x.data()), 0x100000, n * 4},
        {reinterpret_cast<std::byte*>(y.data()), 0x900000, n * 4}};
    auto run =
        device.Run(program, config, std::move(b),
                   cpu::CortexA15Device::kMaxCores);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    if (threads == 1) {
      ref_out = y;
      ref_seconds = run->seconds;
    } else {
      EXPECT_EQ(ref_out, y);
      EXPECT_EQ(ref_seconds, run->seconds);
    }
  }
}

}  // namespace
}  // namespace malisim::harness

// Per-layer probes run by every traced run, each with its own self-check.
//
// sim: sim::MemoryHierarchy::Access on the Mali-T604 geometry (8 KiB
// effective L1, 1 MiB L2), timed on two seeded address streams. The stream
// walks whole lines over a footprint eight times the L2, so nearly every
// access misses both levels; the reuse stream stays inside a 4 KiB
// footprint that fits in the L1, so after warm-up every access hits it.
//
// kir / mali: every benchmark's TunedKernelText(PaperOptConfig()) at quick
// sizes, both precisions, parsed once; then kir::vm::CompileProgram and
// mali::CompileForMali are timed on it (median of repeats per kernel).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "hpc/benchmark.h"
#include "kir/parse.h"
#include "kir/vm/bytecode.h"
#include "mali/compiler.h"
#include "mali/t604_params.h"
#include "sim/memory_system.h"

namespace perfbench {

namespace hpc = malisim::hpc;
namespace kir = malisim::kir;
namespace mali = malisim::mali;
namespace sim = malisim::sim;

namespace {

constexpr std::uint64_t kLine = 64;
constexpr std::size_t kAccesses = 1u << 20;

struct StreamCost {
  double ns_per_access = 0.0;
  double l1_hit_ratio = 0.0;
  double l2_miss_per_access = 0.0;
};

StreamCost TimeStream(const std::vector<std::uint64_t>& addrs) {
  const mali::MaliMemoryConfig memory;
  std::vector<double> ns;
  StreamCost cost;
  for (int rep = 0; rep < 5; ++rep) {
    sim::MemoryHierarchy hierarchy(
        sim::HierarchyConfig{/*has_l1=*/true, /*num_cores=*/1, memory.l1, memory.l2});
    // Warm-up pass, then the timed pass on warm caches.
    for (const std::uint64_t a : addrs) hierarchy.Access(0, a, 4, false);
    hierarchy.ResetStats();
    std::uint64_t l2_misses = 0;
    const Clock::time_point t0 = Clock::now();
    for (const std::uint64_t a : addrs) {
      l2_misses += hierarchy.Access(0, a, 4, false).l2_misses;
    }
    ns.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(addrs.size()));
    cost.l1_hit_ratio = hierarchy.l1(0).stats().hit_rate();
    cost.l2_miss_per_access =
        static_cast<double>(l2_misses) / static_cast<double>(addrs.size());
  }
  cost.ns_per_access = Median(ns);
  return cost;
}

void HierarchyProbe(std::uint64_t seed, Result* result) {
  const mali::MaliMemoryConfig memory;
  SplitMix rng(seed ^ 0x4ea7ULL);
  // Streaming: consecutive lines over 8x the L2, from a seeded start line,
  // each access at a seeded word within its line.
  const std::uint64_t stream_lines = 8 * memory.l2.size_bytes / kLine;
  const std::uint64_t first = rng.Next() % stream_lines;
  std::vector<std::uint64_t> stream(kAccesses);
  for (std::size_t i = 0; i < kAccesses; ++i) {
    stream[i] = ((first + i) % stream_lines) * kLine + (rng.Next() % 16) * 4;
  }
  // Reuse: random words inside a footprint half the L1.
  const std::uint64_t reuse_bytes = memory.l1.size_bytes / 2;
  std::vector<std::uint64_t> reuse(kAccesses);
  for (std::uint64_t& a : reuse) a = (rng.Next() % (reuse_bytes / 4)) * 4;

  const StreamCost s = TimeStream(stream);
  const StreamCost r = TimeStream(reuse);
  char line[200];
  std::snprintf(line, sizeof(line),
                "hierarchy probe: stream L2 misses/access %.3f, reuse L1 hit "
                "ratio %.4f",
                s.l2_miss_per_access, r.l1_hit_ratio);
  result->Note(line);
  result->Check(!stream.empty() && !reuse.empty() &&
                    stream_lines * kLine >= 4 * memory.l2.size_bytes &&
                    reuse_bytes <= memory.l1.size_bytes,
                "hierarchy probe streams non-empty, footprints stream >= 4x L2, "
                "reuse <= L1");
  result->Check(s.l2_miss_per_access > 0.9 && s.l1_hit_ratio < 0.1,
                "streaming stream misses L1 and L2 on nearly every access");
  result->Check(r.l1_hit_ratio == 1.0 && r.l2_miss_per_access == 0.0,
                "reuse stream hits L1 on every warm access");
  result->Metric("sim.hier_ns_per_access.stream", s.ns_per_access, "ns");
  result->Metric("sim.hier_ns_per_access.reuse", r.ns_per_access, "ns");
}

/// Splits a kernel text holding one or more "kernel name(...)" programs
/// (the reduction's two stages) into one text per kernel.
std::vector<std::string> SplitKernels(const std::string& text) {
  std::vector<std::string> kernels;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t next = text.find("\nkernel ", begin);
    next = next == std::string::npos ? text.size() : next + 1;
    kernels.push_back(text.substr(begin, next - begin));
    begin = next;
  }
  return kernels;
}

void CompileProbe(Result* result) {
  const mali::MaliTimingParams timing;
  const mali::MaliCompilerParams params;
  constexpr int kRepeats = 7;
  std::vector<double> kir_us, mali_us;
  int erratum_failures = 0;
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    for (const bool fp64 : {false, true}) {
      const std::string label = name + (fp64 ? " fp64" : " fp32");
      std::unique_ptr<hpc::Benchmark> bench =
          hpc::CreateBenchmark(name, hpc::ProblemSizes::Quick());
      if (bench == nullptr || !bench->Setup(fp64, 42).ok()) {
        result->Check(false, "compile probe setup " + label);
        continue;
      }
      const auto text = bench->TunedKernelText(bench->PaperOptConfig());
      if (!text.ok()) {
        result->Check(false, "compile probe kernel text " + label);
        continue;
      }
      for (const std::string& kernel : SplitKernels(*text)) {
        const auto program = kir::ParseProgram(kernel);
        if (!program.ok() || program->code.empty()) {
          result->Check(false, "compile probe kernel " + label + ": " +
                                   program.status().ToString());
          continue;
        }
        bool lowered = true;
        kir_us.push_back(1e6 * MedianTime(kRepeats, [&] {
          const auto compiled = kir::vm::CompileProgram(*program);
          lowered = lowered && compiled.ok() && !(*compiled)->code.empty();
        }));
        bool built = true;
        const double us = 1e6 * MedianTime(kRepeats, [&] {
          built = mali::CompileForMali(*program, timing, params).ok();
        });
        if (built) {
          mali_us.push_back(us);
        } else if (name == "amcd" && fp64) {
          ++erratum_failures;  // the Mali FP64 compiler erratum
        }
        if (!lowered || !(built || (name == "amcd" && fp64))) {
          result->Check(false, "compile probe " + program->name + " " + label);
        }
      }
    }
  }
  // 18 (benchmark, precision) texts, the reduction's holding two kernels.
  result->Check(kir_us.size() == 20 && mali_us.size() == 19 && erratum_failures == 1,
                "compile probe: " + std::to_string(kir_us.size()) +
                    " kernels lowered to bytecode, " +
                    std::to_string(mali_us.size()) +
                    " built for Mali (amcd fp64 fails by the erratum)");
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  result->Metric("kir.compile_us", mean(kir_us), "us");
  result->Metric("mali.compile_us", mean(mali_us), "us");
}

}  // namespace

void RunProbes(const Args& args, Result* result) {
  HierarchyProbe(args.seed, result);
  CompileProbe(result);
}

}  // namespace perfbench

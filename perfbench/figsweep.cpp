// figsweep_full: the paper's full figure sweep — nine benchmarks x four
// variants x fp32/fp64 at the default (§IV-A) problem sizes, sim_threads=1,
// bytecode KIR engine — through harness::ExperimentRunner::RunAll. The two
// precisions run as two concurrent RunAll calls, one host thread each, so
// a 40 s run fits two or three sweeps.
//
// The sweep's inputs are fixed: the committed golden CSVs under results/
// pin the data seed (42), so --seed does not change this workload.
//
// Untraced run: repeated sweeps, checked against the golden CSVs and the
// paper reference. Traced run: one untraced sweep plus one sweep that
// re-executes RunAll's per-benchmark body from outside (CreateBenchmark +
// Setup, RunVariant per variant, PowerModel + PowerMeter) under spans, with
// an obs::Recorder (HostProf on) attached to the device models. Per-layer
// times are thread-seconds summed over the two precision threads.
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cpu/a15_device.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "hpc/benchmark.h"
#include "obs/recorder.h"
#include "ocl/runtime.h"
#include "paper_reference.h"
#include "power/power_meter.h"
#include "power/power_model.h"

namespace perfbench {

namespace mh = malisim::harness;
namespace hpc = malisim::hpc;
namespace obs = malisim::obs;

namespace {

constexpr std::uint64_t kGoldenSeed = 42;  // seed the golden CSVs were made at
constexpr int kPrecisions = 2;             // [0] = fp32, [1] = fp64

using Sweep = std::vector<mh::BenchmarkResults>;

struct SweepPair {
  Sweep sweeps[kPrecisions];
  std::uint64_t instructions = 0;  // simulated source instructions
};

mh::ExperimentConfig SweepConfig(bool fp64, obs::Recorder* recorder) {
  mh::ExperimentConfig config;
  config.fp64 = fp64;
  config.seed = kGoldenSeed;
  config.sim_threads = 1;
  config.kir_exec = malisim::KirExec::kBytecode;
  config.recorder = recorder;
  return config;
}

std::uint64_t Instructions(const obs::Recorder& recorder) {
  std::uint64_t total = 0;
  for (const obs::KernelRecord& k : recorder.kernels()) {
    for (const std::uint64_t n : k.opcode_counts) total += n;
  }
  return total;
}

/// Both precisions through RunAll, concurrently. A counters-only recorder
/// (no trace retention, no host profiler) supplies the simulated
/// instruction count.
SweepPair RunAllPair(Result* result) {
  SweepPair pair;
  malisim::Status status[kPrecisions];
  obs::ObsOptions options;
  options.trace = false;
  std::unique_ptr<obs::Recorder> recorders[kPrecisions];
  auto run = [&](int p) {
    mh::ExperimentRunner runner(SweepConfig(p == 1, recorders[p].get()));
    malisim::StatusOr<Sweep> sweep = runner.RunAll();
    if (sweep.ok()) {
      pair.sweeps[p] = *std::move(sweep);
    } else {
      status[p] = sweep.status();
    }
  };
  std::vector<std::thread> threads;
  for (int p = 0; p < kPrecisions; ++p) {
    recorders[p] = std::make_unique<obs::Recorder>(options);
    threads.emplace_back(run, p);
  }
  for (std::thread& t : threads) t.join();
  for (int p = 0; p < kPrecisions; ++p) {
    result->Check(status[p].ok(), std::string("RunAll ") +
                                      (p == 1 ? "fp64" : "fp32") + ": " +
                                      status[p].ToString());
    pair.instructions += Instructions(*recorders[p]);
  }
  return pair;
}

bool IsExpectedGap(const std::string& bench, bool fp64, hpc::Variant v) {
  // The amcd FP64 OpenCL kernels hit the Mali compiler erratum: the paper
  // has no bars there either.
  return bench == "amcd" && fp64 &&
         (v == hpc::Variant::kOpenCL || v == hpc::Variant::kOpenCLOpt);
}

/// Sweep cells attempted / failed. A cell fails when it is unavailable or
/// unvalidated, except the expected amcd FP64 erratum cells.
void CountCells(const SweepPair& pair, std::uint64_t* attempted,
                std::uint64_t* failed) {
  for (int p = 0; p < kPrecisions; ++p) {
    for (const mh::BenchmarkResults& r : pair.sweeps[p]) {
      for (const hpc::Variant v : hpc::kAllVariants) {
        ++*attempted;
        const mh::VariantResult& cell = r.Get(v);
        const bool ok = cell.available && cell.validated;
        if (!ok && !IsExpectedGap(r.name, p == 1, v)) ++*failed;
      }
    }
  }
}

// ---- golden CSV check ----

using CsvRows = std::map<std::string, std::vector<std::string>>;

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

/// Parses a committed figure CSV into per-precision benchmark rows (the
/// "# Fig. N(a)" block is fp32, "(b)" fp64).
bool ParseGoldenCsv(const std::string& path, CsvRows rows[kPrecisions]) {
  std::ifstream in(path);
  if (!in) return false;
  int block = -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# Fig.", 0) == 0) {
      ++block;
      continue;
    }
    if (block < 0 || block >= kPrecisions || line.empty() ||
        line[0] == '#' || line.rfind("benchmark,", 0) == 0) {
      continue;
    }
    std::vector<std::string> fields = SplitCsv(line);
    const std::string name = fields.front();
    fields.erase(fields.begin());
    rows[block][name] = fields;
  }
  return block == kPrecisions - 1;
}

CsvRows ModelRows(const malisim::Table& table) {
  CsvRows rows;
  std::stringstream in(table.ToCsv());
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> fields = SplitCsv(line);
    if (fields.empty()) continue;
    const std::string name = fields.front();
    fields.erase(fields.begin());
    rows[name] = fields;
  }
  return rows;
}

/// Cells where the committed CSVs predate the current model
/// (perfbench/golden_known_diffs.csv): "figure,precision,benchmark,column"
/// -> {committed, current}. Any other mismatch fails the check, and so does
/// a listed cell whose current value moved.
std::map<std::string, std::pair<std::string, std::string>> KnownDiffs(
    const std::string& path) {
  std::map<std::string, std::pair<std::string, std::string>> diffs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = SplitCsv(line);
    if (f.size() != 6) continue;
    diffs[f[0] + "," + f[1] + "," + f[2] + "," + f[3]] = {f[4], f[5]};
  }
  return diffs;
}

void CheckGolden(const Args& args, const SweepPair& pair, Result* result) {
  struct Figure {
    const char* key;
    const char* file;
    malisim::Table (*table)(const std::vector<mh::BenchmarkResults>&);
  };
  const Figure figures[] = {
      {"fig2", "results/fig2_speedup.csv", &mh::Fig2Speedup},
      {"fig3", "results/fig3_power.csv", &mh::Fig3Power},
      {"fig4", "results/fig4_energy.csv", &mh::Fig4Energy},
  };
  static const char* kColumns[] = {"Serial", "OpenMP", "OpenCL", "OpenCL Opt"};
  const auto known = KnownDiffs(args.root + "/perfbench/golden_known_diffs.csv");
  int cells = 0, unexpected = 0, known_seen = 0;
  for (const Figure& fig : figures) {
    CsvRows golden[kPrecisions];
    const bool parsed = ParseGoldenCsv(args.root + "/" + fig.file, golden);
    result->Check(parsed, std::string("golden CSV readable: ") + fig.file);
    if (!parsed) continue;
    for (int p = 0; p < kPrecisions; ++p) {
      const CsvRows model = ModelRows(fig.table(pair.sweeps[p]));
      for (const std::string& bench : hpc::RegisteredBenchmarks()) {
        const auto row = golden[p].find(bench);
        if (row == golden[p].end()) {
          ++unexpected;
          result->Note(std::string("golden row missing: ") + fig.key + " " + bench);
          continue;
        }
        const std::vector<std::string>& want = row->second;
        const auto it = model.find(bench);
        const bool shaped = it != model.end() && it->second.size() == want.size();
        if (!shaped) {
          ++unexpected;
          result->Note(std::string("model row missing: ") + fig.key + " " + bench);
          continue;
        }
        for (std::size_t c = 0; c < want.size() && c < 4; ++c) {
          ++cells;
          const std::string& got = it->second[c];
          if (got == want[c]) continue;
          const std::string key = std::string(fig.key) + "," +
                                  (p == 1 ? "fp64" : "fp32") + "," + bench +
                                  "," + kColumns[c];
          const auto k = known.find(key);
          if (k != known.end() && k->second.first == want[c] &&
              k->second.second == got) {
            ++known_seen;
            continue;
          }
          ++unexpected;
          result->Note("golden mismatch " + key + ": committed " + want[c] +
                       ", modelled " + got);
        }
      }
    }
  }
  result->Check(unexpected == 0 && cells > 0,
                "figure cells equal committed results/fig{2,3,4} CSVs (" +
                    std::to_string(cells) + " cells, " +
                    std::to_string(known_seen) +
                    " listed as stale in golden_known_diffs.csv)");
}

// ---- paper reference error ----

/// One precision's sweep and the paper's values for it.
using PaperPart =
    std::pair<const Sweep*, const std::map<std::string, malisim::bench::PaperRow>*>;

/// Geometric mean of |model/paper - 1| over the cells the paper reports.
double PaperError(const std::vector<PaperPart>& parts,
                  double (mh::BenchmarkResults::*metric)(hpc::Variant) const) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [sweep, reference] : parts) {
    for (const mh::BenchmarkResults& r : *sweep) {
      const auto ref = reference->find(r.name);
      if (ref == reference->end()) continue;
      const std::pair<hpc::Variant, double> cells[] = {
          {hpc::Variant::kOpenMP, ref->second.openmp},
          {hpc::Variant::kOpenCL, ref->second.opencl},
          {hpc::Variant::kOpenCLOpt, ref->second.opencl_opt}};
      for (const auto& [variant, paper] : cells) {
        const double model = (r.*metric)(variant);
        if (!std::isfinite(paper) || paper <= 0.0 || model <= 0.0) continue;
        const double err = std::fabs(model / paper - 1.0);
        if (err <= 0.0) continue;  // exact agreement carries no log weight
        log_sum += std::log(err);
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// Per-cell modelled seconds, keyed "precision/benchmark/variant"; -1 for
/// unavailable cells.
std::map<std::string, double> CellSeconds(const SweepPair& pair) {
  std::map<std::string, double> cells;
  for (int p = 0; p < kPrecisions; ++p) {
    for (const mh::BenchmarkResults& r : pair.sweeps[p]) {
      for (const hpc::Variant v : hpc::kAllVariants) {
        const mh::VariantResult& cell = r.Get(v);
        cells[std::to_string(p) + "/" + r.name + "/" +
              std::string(hpc::VariantName(v))] =
            cell.available ? cell.seconds : -1.0;
      }
    }
  }
  return cells;
}

// ---- traced sweep: RunAll's per-benchmark body, re-executed from outside ----

struct TracedPrecision {
  std::unique_ptr<obs::Recorder> recorder;
  Sweep sweep;
  malisim::Status status;
};

void TracedSweep(const hpc::ProblemSizes& sizes, bool fp64, SpanLog* spans,
                 TracedPrecision* out) {
  obs::ObsOptions options;
  options.host_prof = true;
  out->recorder = std::make_unique<obs::Recorder>(options);
  mh::ExperimentConfig config = SweepConfig(fp64, out->recorder.get());
  config.sizes = sizes;
  const malisim::power::PowerModel power_model(config.power);
  const std::vector<std::string> names = hpc::RegisteredBenchmarks();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    // Spans of one (precision, benchmark) cell share a request id.
    const std::uint64_t request = (fp64 ? 100 : 0) + i;
    SpanLog::Scope cell_span(spans, "harness.benchmark", request);
    std::unique_ptr<hpc::Benchmark> bench;
    {
      SpanLog::Scope span(spans, "hpc.setup", request);
      bench = hpc::CreateBenchmark(name, config.sizes);
      out->status = bench == nullptr
                        ? malisim::NotFoundError("unknown benchmark " + name)
                        : bench->Setup(config.fp64, config.seed);
    }
    if (!out->status.ok()) return;
    malisim::cpu::CortexA15Device cpu_device;
    malisim::ocl::Context gpu_context(config.device);
    malisim::SimOptions sim_options;
    sim_options.threads = config.sim_threads;
    sim_options.kir_exec = config.kir_exec;
    cpu_device.set_sim_options(sim_options);
    gpu_context.set_sim_options(sim_options);
    cpu_device.set_recorder(out->recorder.get());
    gpu_context.set_recorder(out->recorder.get());
    hpc::Devices devices{&cpu_device, &gpu_context};

    mh::BenchmarkResults results;
    results.name = name;
    for (const hpc::Variant v : hpc::kAllVariants) {
      const bool on_cpu =
          v == hpc::Variant::kSerial || v == hpc::Variant::kOpenMP;
      malisim::StatusOr<hpc::RunOutcome> run = malisim::InternalError("");
      {
        SpanLog::Scope span(spans, on_cpu ? "cpu.run" : "mali.run", request);
        run = bench->RunVariant(v, devices);
      }
      mh::VariantResult& cell = results.variants[static_cast<int>(v)];
      cell.available = run.ok();
      if (!run.ok()) continue;
      cell.seconds = run->seconds;
      cell.validated = run->validated;
      SpanLog::Scope span(spans, "power", request);
      const double watts = power_model.AveragePower(run->profile);
      malisim::power::PowerMeter meter(config.meter, config.seed);
      double sum = 0.0;
      for (int rep = 0; rep < config.repetitions; ++rep) {
        sum += meter.Measure(watts, config.meter_window_sec).mean_watts;
      }
      cell.power_mean_w = sum / config.repetitions;
      cell.energy_j = cell.power_mean_w * cell.seconds;
    }
    {
      // RunAll mirrors the scheduled event graph into an attached recorder.
      SpanLog::Scope span(spans, "ocl.graph", request);
      out->status = gpu_context.queue().RecordScheduledGraph("mali");
    }
    if (!out->status.ok()) return;
    out->sweep.push_back(std::move(results));
  }
}

void SetTracedMetrics(const SpanLog& spans,
                      const std::vector<TracedPrecision>& traced,
                      Result* result) {
  result->Metric("hpc.setup_s", spans.SelfSeconds("hpc.setup"), "s");
  result->Metric("cpu.run_s", spans.SelfSeconds("cpu.run"), "s");
  result->Metric("mali.run_s", spans.SelfSeconds("mali.run"), "s");
  result->Metric("power.s", spans.SelfSeconds("power"), "s");

  std::uint64_t phase_total[obs::kNumHostPhases] = {};
  std::uint64_t phase_self[obs::kNumHostPhases] = {};
  double instr = 0, accesses = 0, l1_misses = 0, l2_misses = 0, dram = 0;
  for (const TracedPrecision& t : traced) {
    const obs::HostProf::Snapshot snap = t.recorder->host_prof()->TakeSnapshot();
    for (int i = 0; i < obs::kNumHostPhases; ++i) {
      phase_total[i] += snap.phases[static_cast<std::size_t>(i)].total_ns;
      phase_self[i] += snap.phases[static_cast<std::size_t>(i)].self_ns;
    }
    for (const obs::KernelRecord& k : t.recorder->kernels()) {
      for (const std::uint64_t n : k.opcode_counts) instr += static_cast<double>(n);
      accesses += static_cast<double>(k.loads + k.stores + k.atomics);
      for (const obs::CoreKernelCounters& c : k.cores) {
        l1_misses += static_cast<double>(c.l1_misses);
        l2_misses += static_cast<double>(c.l2_misses);
      }
      dram += static_cast<double>(k.dram_bytes);
    }
  }
  auto phase = [](const std::uint64_t* ns, obs::HostPhase ph) {
    return static_cast<double>(ns[static_cast<int>(ph)]) * 1e-9;
  };
  result->Metric("kir.vm_exec_s", phase(phase_total, obs::HostPhase::kVmExec), "s");
  result->Metric("kir.vm_compile_s", phase(phase_total, obs::HostPhase::kVmCompile), "s");
  result->Metric("ocl.enqueue_s", phase(phase_self, obs::HostPhase::kEnqueue), "s");
  result->Metric("sim.schedule_s", phase(phase_total, obs::HostPhase::kSchedule), "s");
  result->Metric("sim.instr", instr, "count");
  result->Metric("sim.l1_accesses", accesses, "count");
  result->Metric("sim.l1_hit_ratio",
                 accesses > 0 ? std::max(0.0, 1.0 - l1_misses / accesses) : 0.0,
                 "ratio");
  result->Metric("sim.l2_hit_ratio",
                 l1_misses > 0 ? std::max(0.0, 1.0 - l2_misses / l1_misses) : 0.0,
                 "ratio");
  result->Metric("sim.dram_bytes", dram, "B");
}

}  // namespace

void RunFigSweep(const Args& args, Result* result) {
  // Set-up: runner and recorder construction for both precisions.
  auto setup = [] {
    return MedianSetupTime([] {
      obs::ObsOptions options;
      options.trace = false;
      for (int p = 0; p < kPrecisions; ++p) {
        obs::Recorder recorder(options);
        mh::ExperimentRunner runner(SweepConfig(p == 1, &recorder));
        (void)runner;
      }
    });
  };

  if (!args.trace) {
    const Clock::time_point start = Clock::now();
    std::vector<SweepPair> pairs;
    const Repetitions reps = TimeRepetitions(
        args.seconds, setup, [&] { pairs.push_back(RunAllPair(result)); });
    const SweepPair& first = pairs.front();
    CheckGolden(args, first, result);
    const auto cells = CellSeconds(first);
    bool stable = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> rates;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      stable = stable && CellSeconds(pairs[i]) == cells &&
               pairs[i].instructions == first.instructions;
      CountCells(pairs[i], &attempted, &failed);
      rates.push_back(static_cast<double>(pairs[i].instructions) / reps.seconds[i] / 1e6);
    }
    result->Check(stable, "modelled seconds identical across " +
                              std::to_string(pairs.size()) + " sweeps");
    result->Check(first.instructions > 0, "sweep simulated instructions");
    result->Attempt(attempted, failed);
    const double host = Median(reps.seconds);
    const double ok_cells =
        static_cast<double>(attempted - failed) / static_cast<double>(pairs.size());

    using Parts = std::vector<PaperPart>;
    const Parts speed = {{&first.sweeps[0], &malisim::bench::Fig2aSpeedup()},
                         {&first.sweeps[1], &malisim::bench::Fig2bSpeedup()}};
    const Parts power = {{&first.sweeps[0], &malisim::bench::Fig3aPower()}};
    const Parts energy = {{&first.sweeps[0], &malisim::bench::Fig4aEnergy()}};

    result->Note(Summarize("host_s (one sweep = fp32 || fp64)", reps.seconds, "s"));
    result->Note("total measured " + std::to_string(SecondsSince(start)) + " s");
    result->Metric("setup_s", Median(reps.setup_seconds), "s");
    result->Metric("host_s", host, "s");
    result->Metric("sim_minstr_per_s", Median(rates), "Minstr/s");
    result->Metric("peak_rss_mb", reps.peak_rss_mb, "MB");
    result->Metric("jobs_ok_per_s", ok_cells / host, "jobs/s");
    result->Metric("ok_ratio",
                   1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio");
    result->Metric("paper_speedup_err",
                   PaperError(speed, &mh::BenchmarkResults::SpeedupVsSerial), "ratio");
    result->Metric("paper_power_err",
                   PaperError(power, &mh::BenchmarkResults::PowerVsSerial), "ratio");
    result->Metric("paper_energy_err",
                   PaperError(energy, &mh::BenchmarkResults::EnergyVsSerial), "ratio");
    return;
  }

  // Traced run: one untraced sweep, then the traced re-execution.
  Clock::time_point t0 = Clock::now();
  const SweepPair untraced = RunAllPair(result);
  const double untraced_sec = SecondsSince(t0);

  SpanLog spans;
  std::vector<TracedPrecision> traced(kPrecisions);
  t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int p = 0; p < kPrecisions; ++p) {
      threads.emplace_back([&, p] {
        TracedSweep(hpc::ProblemSizes(), p == 1, &spans, &traced[p]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double traced_sec = SecondsSince(t0);

  SweepPair traced_pair;
  for (int p = 0; p < kPrecisions; ++p) {
    result->Check(traced[p].status.ok(),
                  "traced sweep: " + traced[p].status.ToString());
    traced_pair.sweeps[p] = traced[p].sweep;
  }
  result->Check(CellSeconds(traced_pair) == CellSeconds(untraced),
                "traced per-cell modelled seconds equal the untraced run's");
  std::uint64_t attempted = 0, failed = 0;
  CountCells(traced_pair, &attempted, &failed);
  result->Attempt(attempted, failed);
  SetTracedMetrics(spans, traced, result);
  result->Metric("obs.trace_overhead", traced_sec / untraced_sec, "ratio");
  result->Note("untraced sweep " + std::to_string(untraced_sec) +
               " s, traced sweep " + std::to_string(traced_sec) + " s, " +
               std::to_string(spans.size()) + " spans");
  if (!args.spans_out.empty()) spans.WriteChromeTrace(args.spans_out);
}

void ProbeSweepLayers(Result* result) {
  SpanLog spans;
  std::vector<TracedPrecision> traced(1);
  TracedSweep(hpc::ProblemSizes::Quick(), /*fp64=*/false, &spans, &traced[0]);
  result->Check(traced[0].status.ok(),
                "quick traced sweep probe: " + traced[0].status.ToString());
  SetTracedMetrics(spans, traced, result);
}

}  // namespace perfbench

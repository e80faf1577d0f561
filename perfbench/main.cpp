// malisim benchmark program.
//
//   perfbench --workload figsweep_full|tune_sweep|serve_batch
//                    --seed N --seconds S --trace 0|1
//                    [--root DIR] [--spans-out PATH]
//
// Untraced (--trace 0) runs print every end-to-end metric; traced runs
// print every per-layer metric. The last stdout line is the JSON result;
// the lines before it are a human-readable report. Exit code 0 only when
// every output check passed. See perfbench/NOTES.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

// End-to-end metrics every untraced run reports, with their units. A
// workload that does not define one reports the neutral constant 1.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_s", "s"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"peak_rss_mb", "MB"},
    {"jobs_ok_per_s", "jobs/s"},
    {"ok_ratio", "ratio"},
    {"paper_speedup_err", "ratio"},
    {"paper_power_err", "ratio"},
    {"paper_energy_err", "ratio"},
    {"tune_energy_j", "J"},
};

// Per-layer metrics every traced run reports. Layers the workload does not
// exercise are measured on the small fixed probes (bench.h).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"harness.tune_ms_per_eval", "ms"},
    {"harness.evals", "count"},
    {"hpc.setup_s", "s"},
    {"cpu.run_s", "s"},
    {"mali.run_s", "s"},
    {"kir.vm_exec_s", "s"},
    {"kir.vm_compile_s", "s"},
    {"ocl.enqueue_s", "s"},
    {"sim.schedule_s", "s"},
    {"kir.compile_us", "us"},
    {"mali.compile_us", "us"},
    {"mali.cache_hit_ratio", "ratio"},
    {"sim.hier_ns_per_access.stream", "ns"},
    {"sim.hier_ns_per_access.reuse", "ns"},
    {"sim.instr", "count"},
    {"sim.l1_accesses", "count"},
    {"sim.l1_hit_ratio", "ratio"},
    {"sim.l2_hit_ratio", "ratio"},
    {"sim.dram_bytes", "B"},
    {"power.s", "s"},
    {"serve.submit_us", "us"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.backlog_mean", "jobs"},
    {"serve.degraded_share", "ratio"},
    {"serve.breaker_trips", "count"},
    {"fault.injected", "count"},
    {"fault.retries", "count"},
    {"obs.trace_overhead", "ratio"},
};

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--root") {
      args->root = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload figsweep_full|tune_sweep|serve_batch "
                 "--seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--spans-out PATH]\n",
                 argv[0]);
    return 2;
  }
  // The amcd FP64 erratum and register-budget warnings are modelled paper
  // behaviour; keep them out of the report.
  malisim::SetLogLevel(malisim::LogLevel::kError);

  perfbench::Result result;
  if (args.workload == "figsweep_full") {
    perfbench::RunFigSweep(args, &result);
  } else if (args.workload == "tune_sweep") {
    perfbench::RunTuneSweep(args, &result);
  } else if (args.workload == "serve_batch") {
    perfbench::RunServeBatch(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    perfbench::RunProbes(args, &result);
    perfbench::Result probes;
    if (args.workload != "figsweep_full") perfbench::ProbeSweepLayers(&probes);
    if (args.workload != "tune_sweep") perfbench::ProbeTuneLayer(&probes);
    if (args.workload != "serve_batch") perfbench::ProbeServeLayer(&probes);
    result.Absorb(probes);
    for (const auto& [name, unit] : kPerLayer) {
      if (!result.HasMetric(name)) {
        result.Check(false, std::string("per-layer metric measured: ") + name);
        result.Metric(name, 0.0, unit);
      }
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      if (!result.HasMetric(name)) result.Metric(name, 1.0, unit);
    }
    // fail_ratio is usually 0, and a metric must never be 0, so the result
    // carries ok_ratio = 1 - fail_ratio and the report prints fail_ratio.
    result.Note("fail_ratio " +
                std::to_string(static_cast<double>(result.failed()) /
                               static_cast<double>(result.attempted())) +
                " ratio (" + std::to_string(result.failed()) + " failed of " +
                std::to_string(result.attempted()) + " attempted)");
  }
  result.Print();
  return result.correct() ? 0 : 1;
}

// Umbrella header: the public surface of the malisim library.
//
// malisim reproduces "Energy Efficient HPC on Embedded SoCs: Optimization
// Techniques for Mali GPU" (IPDPS 2014) as a simulation. The layers, bottom
// to top:
//
//   common/   — error handling, PRNG, statistics, tables
//   sim/      — caches and DRAM
//   kir/      — the kernel IR: builder DSL, passes, interpreter
//   cpu/      — the Cortex-A15 device model (Serial / OpenMP)
//   mali/     — the Mali-T604 device model and kernel compiler
//   obs/      — observability: counters, power timeline, Perfetto export
//   ocl/      — tinycl, the OpenCL-shaped host runtime
//   power/    — the Exynos 5250 board power model and virtual meter
//   hpc/      — the paper's nine benchmarks in four versions
//   harness/  — experiment runner and figure reproduction
//
// Typical entry points:
//   * write and run a kernel:       kir::KernelBuilder + ocl::Context
//   * run a paper benchmark:        hpc::CreateBenchmark(...)->Run(...)
//   * reproduce a paper figure:     harness::ExperimentRunner + Fig2Speedup
//   * profile a run:                obs::Recorder + obs::WritePerfettoTrace
//                                   (or the malisim-prof CLI in tools/)
#pragma once

#include "common/aligned_buffer.h"
#include "common/log.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"
#include "cpu/a15_device.h"
#include "cpu/a15_params.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "hpc/benchmark.h"
#include "hpc/problem_sizes.h"
#include "kir/builder.h"
#include "kir/exec_types.h"
#include "kir/interp.h"
#include "kir/passes.h"
#include "kir/program.h"
#include "mali/compiler.h"
#include "mali/t604_device.h"
#include "mali/t604_params.h"
#include "obs/export.h"
#include "obs/obs_options.h"
#include "obs/power_sampler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "ocl/cl_error.h"
#include "ocl/runtime.h"
#include "power/power_meter.h"
#include "power/power_model.h"
#include "power/profile.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/memory_system.h"

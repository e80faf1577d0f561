// Recorder: the collection point of the observability subsystem. Device
// models, the OCL runtime and the experiment harness append records here
// when a recorder is attached and enabled; exporters (obs/export.h) turn
// the records into Perfetto traces, JSON/CSV metric dumps and text reports.
//
// Determinism contract: recording is strictly read-only with respect to the
// simulation — every value stored is one the engine computed anyway, and
// the modelled timing/power/energy path never branches on whether a
// recorder is attached. Thread safety: Add* methods are mutex-protected so
// the parallel engine (and parallel RunAll) can record concurrently; record
// ORDER across concurrently-running benchmarks is not deterministic, which
// is why deterministic outputs (golden CSVs) never derive from record
// order. malisim-prof runs benchmarks serially, so its exports are stable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kir/exec_types.h"
#include "kir/interp.h"
#include "kir/opcode.h"
#include "obs/host_prof.h"
#include "obs/obs_options.h"
#include "power/profile.h"

namespace malisim::obs {

/// Per-opcode dynamic execution tally, indexed by kir::Opcode.
using OpcodeCounts = std::array<std::uint64_t, kir::kNumOpcodeValues>;

/// Timing-phase counters for one modelled core's share of a kernel launch.
/// Mali cores fill every field; A15 cores leave the pipe split empty
/// (scalar issue: everything lands in arith_cycles).
struct CoreKernelCounters {
  std::uint64_t groups = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  double arith_cycles = 0.0;
  double ls_cycles = 0.0;
  double dispatch_cycles = 0.0;
  double stall_sec = 0.0;
  double busy_sec = 0.0;   // raw pipe-active time (power-relevant)
  double core_sec = 0.0;   // modelled elapsed time on this core
  double imbalance = 1.0;
};

/// One kernel launch as seen by a device model.
struct KernelRecord {
  std::string kernel;
  std::string device;  // "mali-t604" or "cortex-a15"
  /// Execution scope: empty for a plain single-backend launch, "hetero"
  /// when the launch was a HeteroDevice sub-range — exporters use it to
  /// route hetero sub-launches onto their own trace lanes.
  std::string scope;
  double seconds = 0.0;
  std::vector<CoreKernelCounters> cores;
  /// Per-opcode dynamic instruction counts (interpreter tally).
  OpcodeCounts opcode_counts{};
  /// (class, type, lanes) histogram — what the timing model actually costs.
  kir::OpHistogram ops;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t load_bytes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barriers_crossed = 0;
  std::uint64_t work_items = 0;
  std::uint64_t dram_bytes = 0;
  /// Device-wide time floors and the winning bottleneck label
  /// ("arith-pipe", "ls-pipe", "memory-latency", "dram-bandwidth",
  /// "atomic-serialization", "cpu-issue").
  double dram_bw_floor_sec = 0.0;
  double atomic_floor_sec = 0.0;
  std::string bottleneck;
  /// Compiler register-pressure report (Mali only; zero on the CPU).
  std::uint32_t live_reg_bytes = 0;
  std::uint32_t threads_per_core = 0;
  double sched_factor = 1.0;
  power::ActivityProfile profile;
};

/// Fills the device-independent half of a launch's record: the opcode
/// tally summed over the modelled cores, the merged functional counts and
/// the launch's DRAM traffic. Each device adds its timing fields and its
/// own bottleneck rule.
void FillLaunchCounts(std::span<const kir::CoreRun> cores,
                      const kir::WorkGroupRun& run, std::uint64_t dram_bytes,
                      KernelRecord* record);

/// One host-runtime command (transfer, map, fill, enqueue).
struct CommandRecord {
  std::string kind;    // "write", "read", "copy", "fill", "map", "unmap",
                       // "ndrange"
  std::string detail;  // kernel name for ndrange, empty otherwise
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// One fault-injection decision or resilience action (retry, ladder
/// fall-back, watchdog abort, skipped repetition), mirrored from the
/// fault subsystem's event log through the harness sink. The fault
/// library itself cannot depend on obs (cycle via power), so the harness
/// maps fault::FaultEvent fields onto this record.
struct FaultRecord {
  std::string site;    // fault site name or resilience stage
  std::string key;     // "<benchmark>/<context>"
  std::string action;  // "injected", "retried", "fell-back", ...
  std::string detail;
};

/// One scheduled event-graph node, mirrored from sim::ScheduleEvents so
/// exporters can draw the async schedule with causal (flow) arrows and
/// mark the critical path.
struct GraphNodeRecord {
  std::string label;
  int lane = 0;  // sim::kLaneHost / kLaneCompute / kLaneTransfer
  double start_sec = 0.0;
  double finish_sec = 0.0;
  /// Dependency event ids (indices into GraphRecord::nodes).
  std::vector<std::uint32_t> deps;
  bool critical = false;  // on the longest dependency chain
};

/// One scheduled command-queue event graph (per context/run).
struct GraphRecord {
  std::string label;  // queue identity, e.g. "mali-t604" or "hetero"
  double makespan_sec = 0.0;
  double serial_sec = 0.0;
  double critical_path_sec = 0.0;
  std::vector<double> lane_busy_sec;  // indexed by lane
  std::vector<GraphNodeRecord> nodes;
};

/// One SLO burn-rate transition from the live telemetry plane
/// (obs/telemetry.h): the named objective entered ("breach") or left
/// ("recover") its breached state at modelled-time window `window`.
/// `short_value`/`long_value` are the burn-rate inputs that crossed (the
/// newest window and the long multi-window horizon).
struct SloRecord {
  std::string name;    // canonical objective, e.g. "p99_latency_sec<=0.5"
  std::string action;  // "breach" | "recover"
  std::uint64_t window = 0;
  double threshold = 0.0;
  double short_value = 0.0;
  double long_value = 0.0;
};

/// One meter window: what the virtual power meter would observe while
/// `label` ran repeatedly for `window_sec` (the harness's steady-state
/// measurement region, §IV-D).
struct PowerSegment {
  std::string label;  // "<benchmark>/<variant>"
  double window_sec = 0.0;
  power::ActivityProfile profile;
};

/// One consistent cut of every record stream, taken under a single lock
/// acquisition. Exporters that need cross-stream consistency (the metrics
/// JSON ties fault events to the kernels/segments of the same run) must
/// consume one snapshot instead of calling the per-stream accessors
/// back-to-back, which would allow a concurrent producer to land a record
/// between the cuts.
struct RecorderSnapshot {
  std::vector<KernelRecord> kernels;
  std::vector<CommandRecord> commands;
  std::vector<PowerSegment> power_segments;
  std::vector<FaultRecord> faults;
  std::vector<GraphRecord> graphs;
  std::vector<SloRecord> slos;
};

class Recorder {
 public:
  explicit Recorder(const ObsOptions& options = ObsOptions()) {
    options_ = options;
    options_.enabled = true;  // constructing a recorder means "observe"
    if (options_.host_prof) {
      host_prof_ = std::make_unique<HostProf>();
      host_prof_->set_period(
          options_.host_prof_exact ? 1 : options_.host_prof_period);
    }
  }

  const ObsOptions& options() const { return options_; }
  bool counters_enabled() const { return options_.enabled && options_.counters; }
  bool trace_enabled() const { return options_.enabled && options_.trace; }

  void AddKernel(KernelRecord record);
  void AddCommand(CommandRecord record);
  void AddPowerSegment(PowerSegment segment);
  void AddFault(FaultRecord record);
  void AddGraph(GraphRecord record);
  void AddSlo(SloRecord record);

  /// Snapshots (copies, taken under the lock).
  std::vector<KernelRecord> kernels() const;
  std::vector<CommandRecord> commands() const;
  std::vector<PowerSegment> power_segments() const;
  std::vector<FaultRecord> faults() const;
  std::vector<GraphRecord> graphs() const;
  std::vector<SloRecord> slos() const;

  /// One consistent cut of all four streams (single lock acquisition).
  RecorderSnapshot TakeSnapshot() const;

  /// Flush-ordering contract: callers must stop producing (join workers,
  /// finish the last benchmark) and then Seal() the recorder before
  /// exporting. Records arriving after Seal() are NOT lost — they are
  /// buffered normally and appear in any later snapshot — but they are
  /// counted and logged, because an export taken between Seal() and the
  /// late arrival would silently miss them (the late fault-retry bug).
  void Seal();
  bool sealed() const;
  /// Number of records added after Seal(). Non-zero means some export may
  /// be missing events; re-export after the stragglers arrive.
  std::uint64_t late_records() const;

  /// Host-side self-profiler, or null when ObsOptions::host_prof is off.
  /// Instrumentation sites pass the pointer straight into null-safe
  /// HostProf::PhaseSpan / InterpProfile, so "off" costs one null check.
  HostProf* host_prof() { return host_prof_.get(); }
  const HostProf* host_prof() const { return host_prof_.get(); }

 private:
  /// Bumps the late-record count (callers hold mutex_).
  void NoteRecordLocked();

  ObsOptions options_;
  std::unique_ptr<HostProf> host_prof_;
  mutable std::mutex mutex_;
  bool sealed_ = false;
  std::uint64_t late_records_ = 0;
  std::vector<KernelRecord> kernels_;
  std::vector<CommandRecord> commands_;
  std::vector<PowerSegment> segments_;
  std::vector<FaultRecord> faults_;
  std::vector<GraphRecord> graphs_;
  std::vector<SloRecord> slos_;
};

}  // namespace malisim::obs

// HostProf: host-side self-profiling for the simulator process itself.
//
// Everything else in obs/ measures *modelled* Mali/A15 time; HostProf
// measures where the simulator burns real host cycles, so the interpreter
// hot loop can be found before it is replaced (ROADMAP "compile KIR to a
// fused bytecode"). Three collection surfaces:
//
//  * Phase spans (PhaseSpan): RAII wall-clock spans over named pipeline
//    phases (compile, enqueue, schedule, execute, merge, power-accounting,
//    tune, setup, variant). A thread-local frame stack splits cumulative
//    ("total") from exclusive ("self") time; spans that close with no
//    enclosing frame count toward the root coverage used by
//    AttributedFraction().
//  * Interpreter attribution (InterpProfile + kir::HostTimeSink): cheap
//    sampled per-opcode / per-basic-block host-time attribution inside
//    kir::Executor::Step. Period N reads the clock once per N executed
//    instructions and charges the window to the instruction live at the
//    previous tick; period 1 is the exact-tally fallback. Selected via
//    ObsOptions::{host_prof_exact, host_prof_period}.
//  * Overhead self-accounting: the per-sample clock cost is calibrated at
//    construction, so SampleOverheadFraction() reports HostProf's own
//    estimated share of attributed interpreter time — the ≤ 3 % contract
//    checked by tests/obs/host_prof_test.
//
// Determinism contract: HostProf is a read-only tap like every other obs
// component. Host nanoseconds never flow into modelled seconds/watts or
// any deterministic output; they surface only through malisim-prof
// --hotspots, the collapsed-stack dump and the measured-host fields of the
// bench JSON (which the byte-identity test explicitly masks out).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kir/interp.h"
#include "kir/opcode.h"
#include "kir/program.h"

namespace malisim::obs {

/// Host pipeline phases a span can attribute time to.
enum class HostPhase : int {
  kSetup = 0,        // benchmark Setup (input generation, host buffers)
  kCompile,          // ocl::Program::Build (const-fold, DCE, Mali compile)
  kEnqueue,          // host runtime command dispatch (EnqueueNDRange etc.)
  kSchedule,         // event-graph list scheduling
  kExecute,          // device-model kernel execution (interpreter inside)
  kMerge,            // cross-core / hetero result + counter merging
  kPowerAccounting,  // power-model evaluation + meter-window accounting
  kTune,             // autotuner search (candidate fan-out included)
  kVariant,          // one benchmark variant end to end (root span)
  kVmCompile,        // KIR -> VM bytecode lowering (kir::vm::CompileProgram)
  kVmExec,           // bytecode-VM kernel execution (nested under execute)
  kNumPhases,
};

inline constexpr int kNumHostPhases = static_cast<int>(HostPhase::kNumPhases);

std::string_view HostPhaseName(HostPhase phase);

class HostProf {
 public:
  HostProf();

  /// Interp sampling knobs, mirrored from ObsOptions at recorder
  /// construction. period() is what InterpProfile arms sinks with.
  void set_period(std::uint32_t period) {
    period_ = period == 0 ? 1 : period;
  }
  std::uint32_t period() const { return period_; }

  /// RAII phase span. Null-safe: a span built on a null HostProf is inert,
  /// so instrumentation sites need no branches. Strictly LIFO per thread.
  class PhaseSpan {
   public:
    PhaseSpan(HostProf* prof, HostPhase phase);
    ~PhaseSpan();
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;

   private:
    HostProf* prof_;
  };

  /// Merges one interpreter sampling sink (per-opcode / per-block ns plus
  /// sample counts) collected for `kernel`. Thread-safe; addition-only, so
  /// per-core sinks may merge in any order.
  void MergeInterp(const std::string& kernel,
                   const std::vector<kir::BlockSpan>& blocks,
                   const kir::HostTimeSink& sink,
                   const std::uint64_t* op_ns, const std::uint64_t* block_ns);

  /// --- Reporting ------------------------------------------------------
  struct PhaseStat {
    std::string name;
    std::uint64_t total_ns = 0;  // cumulative (children included)
    std::uint64_t self_ns = 0;   // exclusive
    std::uint64_t count = 0;     // span closes
  };
  struct OpcodeStat {
    std::string name;
    std::uint64_t ns = 0;
  };
  struct BlockStat {
    std::string kernel;
    std::uint32_t begin = 0;  // [begin, end) instruction span
    std::uint32_t end = 0;
    std::uint64_t ns = 0;
  };
  struct Snapshot {
    std::vector<PhaseStat> phases;    // indexed by HostPhase
    std::vector<OpcodeStat> opcodes;  // nonzero only, sorted by ns desc
    std::vector<BlockStat> blocks;    // sorted by ns desc
    std::uint64_t root_total_ns = 0;  // sum of top-level span time
    std::uint64_t interp_ns = 0;      // total attributed interpreter ns
    std::uint64_t interp_samples = 0;
    std::uint64_t interp_steps = 0;
    double sample_cost_ns = 0.0;      // calibrated per-clock-read cost
  };
  Snapshot TakeSnapshot() const;

  /// Fraction of `wall_sec` covered by top-level phase spans — the
  /// "≥ 90 % of measured host time attributed" acceptance criterion.
  double AttributedFraction(double wall_sec) const;

  /// Estimated profiler self-cost as a fraction of attributed interpreter
  /// time: samples * calibrated clock cost / attributed ns. 0 when nothing
  /// was attributed.
  double SampleOverheadFraction() const;

  /// Ranked phase/opcode/block table (the malisim-prof --hotspots body).
  static std::string HotspotsTable(const Snapshot& snapshot, double wall_sec);

  /// Collapsed-stack (Brendan Gregg flamegraph) dump. Two roots:
  /// "malisim;..." — phase self times with interpreter opcode time nested
  /// under execute (execute self is reduced by the nested interp time so
  /// the root sums stay disjoint) — and "malisim-blocks;..." — the same
  /// interpreter time re-keyed by kernel basic block.
  static std::string Collapsed(const Snapshot& snapshot);

 private:
  friend class PhaseSpan;

  void CloseSpan(HostPhase phase, std::uint64_t elapsed_ns,
                 std::uint64_t child_ns, bool root);

  struct PhaseCell {
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> count{0};
  };

  std::uint32_t period_ = 256;
  double sample_cost_ns_ = 0.0;
  std::array<PhaseCell, kNumHostPhases> phases_{};
  std::atomic<std::uint64_t> root_total_ns_{0};
  std::array<std::atomic<std::uint64_t>, kir::kNumOpcodeValues> op_ns_{};
  std::atomic<std::uint64_t> interp_ns_{0};
  std::atomic<std::uint64_t> interp_samples_{0};
  std::atomic<std::uint64_t> interp_steps_{0};
  /// (kernel, block begin) -> BlockStat; cold path, mutex-protected.
  mutable std::mutex blocks_mutex_;
  std::map<std::pair<std::string, std::uint32_t>, BlockStat> blocks_;
};

/// Per-launch interpreter sampling state: owns the op/block nanosecond
/// arrays and one armed kir::HostTimeSink per core, sharing a pc -> block
/// map built from kir::BasicBlocks. Inert when `prof` is null: sink()
/// returns nullptr (so executors skip sampling entirely) and Merge() is a
/// no-op — call sites stay branch-free.
class InterpProfile {
 public:
  InterpProfile(HostProf* prof, const kir::Program& program, int cores);

  /// Sink to arm core `core`'s executor with, or nullptr when inactive.
  kir::HostTimeSink* sink(int core) {
    return prof_ == nullptr ? nullptr : &sinks_[static_cast<std::size_t>(core)];
  }

  /// Folds every core's sink into the profiler under `kernel`.
  void Merge(const std::string& kernel);

 private:
  HostProf* prof_;
  std::vector<kir::BlockSpan> blocks_;
  std::vector<std::uint16_t> block_of_pc_;
  std::vector<std::vector<std::uint64_t>> op_ns_;
  std::vector<std::vector<std::uint64_t>> block_ns_;
  std::vector<kir::HostTimeSink> sinks_;
};

/// kir::RunWorkGroups with host-time attribution, as both device models run
/// it: compiles missing bytecode under the vm/compile span, arms each
/// core's interpreter sampler, runs under the execute span (with vm/exec
/// nested when the bytecode engine runs inline on this thread) and merges
/// the samples under the program's name. `prof` may be null.
Status RunWorkGroupsProfiled(HostProf* prof, kir::GroupLaunch* launch,
                             std::unique_ptr<ThreadPool>* pool,
                             std::vector<kir::CoreRun>* out);

}  // namespace malisim::obs

// KIR execution engines.
//
// Two engines run a kernel functionally (real data, full OpenCL NDRange
// semantics including work-group barriers) while streaming simulated memory
// addresses into a MemorySink and tallying executed operations into an
// OpHistogram:
//
//  - InterpExecutor: the reference tree-walk over kir::Instr (this file).
//  - vm::VmExecutor: the compile-once bytecode VM (vm/vm.h), bit-identical
//    to the interpreter by construction and by the `ctest -L kirvm`
//    differential suite.
//
// The Executor facade below selects an engine via SimOptions::kir_exec
// (--kir-exec=, bytecode by default). Device models drive it through
// RunWorkGroups, the one work-group execution skeleton: Mali hands it
// round-robin group slices per shader core, the A15 model contiguous
// slices per CPU core.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_options.h"
#include "common/status.h"
#include "kir/exec_types.h"
#include "kir/program.h"

namespace malisim {
class ThreadPool;
}  // namespace malisim

namespace malisim::kir {

/// Host-wall-time attribution sink for the self-profiler (obs::HostProf).
/// Same layering idiom as the opcode tally: a POD of raw pointers so kir
/// stays free of obs types, null by default so the hot loop pays one
/// perfectly predicted branch. The executor ticks a countdown every Step;
/// when it hits zero it reads the steady clock once and attributes the
/// whole window since the previous tick to the opcode / basic block that
/// was executing at the *previous* tick (classic sampling-profiler
/// semantics; exact when period == 1). Nanosecond sums are commutative,
/// so parallel engines may hand each worker a private sink and merge.
struct HostTimeSink {
  std::uint64_t* op_ns = nullptr;     // kNumOpcodeValues slots, += window ns
  std::uint64_t* block_ns = nullptr;  // one slot per basic block (optional)
  const std::uint16_t* block_of_pc = nullptr;  // pc -> block index map
  std::uint32_t period = 256;  // steps per clock read; 1 = exact tally
  std::uint32_t countdown = 1;  // steps until next tick (primed at 1)
  std::uint64_t last_ns = 0;    // steady-clock ns at the previous tick
  std::int32_t last_pc = -1;    // pc captured at the previous tick
  std::uint64_t samples = 0;    // clock reads taken (self-cost estimate)
  std::uint64_t steps = 0;      // steps covered by attributed windows
};

/// Cold path of the host-time sampler, shared by both engines: reads the
/// clock, attributes the elapsed window to the *source* op/block live at
/// the previous tick, re-arms the countdown. `pc` is a source-program pc
/// (the bytecode engine maps fused instructions back through its side
/// table), so attribution is engine-independent.
void HostTimeSinkTick(HostTimeSink* s, const Program& program,
                      std::uint32_t pc);

/// One maximal straight-line span of instructions: [begin, end). Control
/// opcodes (barrier, loop/if bookkeeping) are singleton blocks; everything
/// between two control points is one block. Pure function of the program,
/// so profilers and the bytecode compiler agree on block identity.
struct BlockSpan {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  // exclusive
};

std::vector<BlockSpan> BasicBlocks(const Program& program);

/// Validates launch geometry and bindings against the program's
/// declarations — the shared front half of both engines' Create().
Status ValidateLaunch(const Program& program, const LaunchConfig& config,
                      const Bindings& bindings);

class InterpExecutor {
 public:
  /// Validates geometry and bindings against the program's declarations.
  /// The program must outlive the executor and must be finalized.
  static StatusOr<InterpExecutor> Create(const Program* program,
                                         LaunchConfig config,
                                         Bindings bindings);

  /// Executes one work-group identified by its group coordinates.
  /// Results are *merged* into `out` (callers aggregate across groups).
  Status RunGroup(const std::array<std::uint64_t, 3>& group_id,
                  MemorySink* sink, WorkGroupRun* out);

  /// Executes every work-group in row-major group order.
  Status RunAllGroups(MemorySink* sink, WorkGroupRun* out);

  const LaunchConfig& config() const { return config_; }

  /// Optional per-opcode dynamic-count tally: when set, every executed
  /// instruction increments `tally[opcode]`. `tally` must point at
  /// kNumOpcodeValues zero-initialized slots and outlive the executor.
  /// Raw pointer (not an obs type) so kir stays free of higher layers;
  /// integer tallies are commutative, so parallel engines can give each
  /// worker a private tally and merge in any order without affecting
  /// determinism. Null (the default) keeps the hot loop branch-free in
  /// practice (perfectly predicted null check).
  void set_opcode_tally(std::uint64_t* tally) { opcode_tally_ = tally; }

  /// Optional host-time sampling sink (see HostTimeSink above). The sink
  /// and every array it points at must outlive the executor. Null (the
  /// default) keeps the hot loop cost at one predicted branch.
  void set_host_time(HostTimeSink* sink) { host_time_ = sink; }

 private:
  struct Slot {
    std::byte* host = nullptr;
    std::uint64_t sim_addr = 0;
    std::uint64_t size_bytes = 0;
    std::uint32_t elem_bytes = 0;
  };

  /// Pre-decoded per-instruction execution metadata.
  struct Decoded {
    int hist_idx = 0;
    std::uint8_t lanes = 1;
    std::uint32_t access_bytes = 0;  // lanes * elem bytes for memory ops
  };

  struct ThreadCtx {
    std::int32_t global_id[3];
    std::int32_t local_id[3];
    std::int32_t group_id[3];
  };

  enum class StopReason { kDone, kBarrier };

  InterpExecutor(const Program* program, LaunchConfig config,
                 Bindings bindings);

  Status RunStraight(const ThreadCtx& ctx, RegValue* regs, MemorySink* sink,
                     WorkGroupRun* out);
  /// Runs from *pc until completion or the next barrier.
  StatusOr<StopReason> RunToBarrier(const ThreadCtx& ctx, RegValue* regs,
                                    std::uint32_t* pc, MemorySink* sink,
                                    WorkGroupRun* out);
  /// Executes the single instruction at pc; advances pc. Returns non-OK on
  /// runtime faults (out-of-bounds access, division by zero on integers).
  Status Step(const ThreadCtx& ctx, RegValue* regs, std::uint32_t* pc,
              MemorySink* sink, WorkGroupRun* out);

  const Program* p_;
  // Incremented once per executed instruction; RunGroup snapshots it around
  // each work-item to derive per-item weights for imbalance accounting.
  std::uint64_t steps_executed_ = 0;
  LaunchConfig config_;
  Bindings bindings_;
  std::vector<Slot> slots_;
  std::vector<Decoded> decoded_;
  std::uint32_t num_regs_ = 0;
  // Register arena reused across work-groups (wg_size * num_regs for the
  // barrier path, num_regs otherwise).
  std::vector<RegValue> reg_arena_;
  // Barrier-path scratch, hoisted to construction so RunGroup stops paying
  // three allocations per work-group.
  std::vector<std::uint32_t> barrier_pcs_;
  std::vector<ThreadCtx> barrier_ctxs_;
  std::vector<std::uint64_t> barrier_weights_;
  std::uint64_t* opcode_tally_ = nullptr;  // see set_opcode_tally
  HostTimeSink* host_time_ = nullptr;      // see set_host_time
};

namespace vm {
struct CompiledProgram;
class VmExecutor;
}  // namespace vm

/// Engine-selecting facade the device models drive. Same surface as the
/// engines behind it; `engine` picks the implementation (bytecode by
/// default, per SimOptions::kir_exec / --kir-exec=). For the bytecode
/// engine, pass a pre-compiled `bytecode` (e.g. from mali::CompiledKernel /
/// mali::CompileCache) to share one compilation across executors; when
/// null, Create compiles the program on the spot.
class Executor {
 public:
  static StatusOr<Executor> Create(
      const Program* program, LaunchConfig config, Bindings bindings,
      KirExec engine = KirExec::kBytecode,
      std::shared_ptr<const vm::CompiledProgram> bytecode = nullptr);

  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;
  ~Executor();

  Status RunGroup(const std::array<std::uint64_t, 3>& group_id,
                  MemorySink* sink, WorkGroupRun* out);
  Status RunAllGroups(MemorySink* sink, WorkGroupRun* out);
  const LaunchConfig& config() const;
  void set_opcode_tally(std::uint64_t* tally);
  void set_host_time(HostTimeSink* sink);

 private:
  Executor();

  // Exactly one is non-null. unique_ptrs (not variants) so this header
  // needs only the forward declarations above.
  std::unique_ptr<InterpExecutor> interp_;
  std::unique_ptr<vm::VmExecutor> bytecode_;
};

/// Convenience for tests and examples: run the whole NDRange with no memory
/// sink, returning the aggregate operation counts.
StatusOr<WorkGroupRun> RunProgram(const Program& program, LaunchConfig config,
                                  Bindings bindings,
                                  KirExec engine = KirExec::kBytecode);

/// One modelled core's share of a launch: the linear work-group indices
/// first, first + stride, ... (`count` of them), the sink that receives the
/// core's memory accesses in canonical order (null drops them), and an
/// optional host-time sampler, armed only when the launch runs inline.
struct CoreSlice {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t stride = 1;
  MemorySink* sink = nullptr;
  HostTimeSink* host_time = nullptr;
};

/// What one modelled core executed.
struct CoreRun {
  WorkGroupRun run;
  std::uint64_t groups = 0;
  /// Per-opcode dynamic counts; filled only when the launch tallies them.
  std::array<std::uint64_t, kNumOpcodeValues> opcode_tally{};
};

/// One launch for RunWorkGroups.
struct GroupLaunch {
  const Program* program = nullptr;
  LaunchConfig config;
  const Bindings* bindings = nullptr;
  /// Engine (kir_exec), host workers (ResolvedThreads) and how many tasks
  /// may run ahead of the replay cursor (ResolvedWindow).
  SimOptions options;
  /// Shared compilation for the bytecode engine (null: each executor
  /// compiles its own).
  std::shared_ptr<const vm::CompiledProgram> bytecode;
  /// Core c's __local scratch lives at scratch_base + c * scratch_stride in
  /// the simulated address space.
  std::uint64_t scratch_base = 0;
  std::uint64_t scratch_stride = 0;
  bool tally_opcodes = false;
  std::vector<CoreSlice> cores;
};

/// The work-group execution skeleton both device models and
/// RunProgramParallel share. Tasks are chunks of one core's slice, ordered
/// core-major, and run through RunOrderedPipeline; each gets a private
/// executor and zeroed __local backing at its core's scratch address.
///
/// With one host thread there is no pool: one task per core, run inline,
/// writing straight into the core's sink. With more, each core's slice is
/// split across `*pool` (created or resized on demand); tasks record their
/// accesses as MemEvents and replay them into the core's sink in task
/// order, which is the inline order, so order-dependent sinks (cache
/// models) see identical streams at every thread count. Sinks that discard
/// events are used directly. Fills `out` with one CoreRun per core; on
/// failure, returns the status of the first failing task in that order.
Status RunWorkGroups(const GroupLaunch& launch,
                     std::unique_ptr<ThreadPool>* pool,
                     std::vector<CoreRun>* out);

/// Like RunProgram but runs the whole grid through RunWorkGroups as
/// `threads` contiguous slices on `threads` pool workers. For well-formed
/// kernels the result is bit-identical to RunProgram; the fuzz suite
/// exercises exactly that contract. Under the bytecode engine the program
/// is compiled once and shared by every task.
StatusOr<WorkGroupRun> RunProgramParallel(const Program& program,
                                          LaunchConfig config,
                                          const Bindings& bindings,
                                          int threads,
                                          KirExec engine = KirExec::kBytecode);

}  // namespace malisim::kir

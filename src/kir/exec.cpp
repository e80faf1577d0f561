// The engine-selecting kir::Executor facade, the RunWorkGroups skeleton
// and the RunProgram helpers.
//
// Out of line (and out of interp.cpp) because this is the only translation
// unit in the library that needs both engines: the facade header only
// forward-declares the bytecode types.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "kir/interp.h"
#include "kir/vm/vm.h"

namespace malisim::kir {

Executor::Executor() = default;
Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;
Executor::~Executor() = default;

StatusOr<Executor> Executor::Create(
    const Program* program, LaunchConfig config, Bindings bindings,
    KirExec engine, std::shared_ptr<const vm::CompiledProgram> bytecode) {
  MALI_CHECK(program != nullptr);
  Executor e;
  if (engine == KirExec::kInterp) {
    StatusOr<InterpExecutor> interp =
        InterpExecutor::Create(program, config, std::move(bindings));
    if (!interp.ok()) return interp.status();
    e.interp_ = std::make_unique<InterpExecutor>(*std::move(interp));
    return StatusOr<Executor>(std::move(e));
  }
  if (bytecode == nullptr) {
    StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
        vm::CompileProgram(*program);
    if (!compiled.ok()) return compiled.status();
    bytecode = *std::move(compiled);
  }
  StatusOr<vm::VmExecutor> bvm = vm::VmExecutor::Create(
      program, std::move(bytecode), config, std::move(bindings));
  if (!bvm.ok()) return bvm.status();
  e.bytecode_ = std::make_unique<vm::VmExecutor>(*std::move(bvm));
  return StatusOr<Executor>(std::move(e));
}

Status Executor::RunGroup(const std::array<std::uint64_t, 3>& group_id,
                          MemorySink* sink, WorkGroupRun* out) {
  return interp_ != nullptr ? interp_->RunGroup(group_id, sink, out)
                            : bytecode_->RunGroup(group_id, sink, out);
}

Status Executor::RunAllGroups(MemorySink* sink, WorkGroupRun* out) {
  return interp_ != nullptr ? interp_->RunAllGroups(sink, out)
                            : bytecode_->RunAllGroups(sink, out);
}

const LaunchConfig& Executor::config() const {
  return interp_ != nullptr ? interp_->config() : bytecode_->config();
}

void Executor::set_opcode_tally(std::uint64_t* tally) {
  if (interp_ != nullptr) {
    interp_->set_opcode_tally(tally);
  } else {
    bytecode_->set_opcode_tally(tally);
  }
}

void Executor::set_host_time(HostTimeSink* sink) {
  if (interp_ != nullptr) {
    interp_->set_host_time(sink);
  } else {
    bytecode_->set_host_time(sink);
  }
}

StatusOr<WorkGroupRun> RunProgram(const Program& program, LaunchConfig config,
                                  Bindings bindings, KirExec engine) {
  StatusOr<Executor> executor =
      Executor::Create(&program, config, std::move(bindings), engine);
  if (!executor.ok()) return executor.status();
  WorkGroupRun run;
  NullMemorySink sink;
  MALI_RETURN_IF_ERROR(executor->RunAllGroups(&sink, &run));
  return run;
}

Status RunWorkGroups(const GroupLaunch& launch,
                     std::unique_ptr<ThreadPool>* pool,
                     std::vector<CoreRun>* out) {
  MALI_CHECK(launch.program != nullptr && !launch.cores.empty());
  const Program& program = *launch.program;
  const int host_threads = launch.options.ResolvedThreads();
  const bool run_inline = host_threads <= 1;
  const std::uint64_t cores = launch.cores.size();
  std::uint64_t scratch_bytes = 64;
  for (const LocalArrayDecl& local : program.locals) {
    scratch_bytes += static_cast<std::uint64_t>(local.elems) *
                     ScalarBytes(local.elem);
  }

  struct Task {
    std::size_t core = 0;
    std::uint64_t begin = 0;  // index into the core's slice
    std::uint64_t end = 0;
  };
  // Inline: one task per core. Pooled: about four tasks per host worker.
  const std::uint64_t chunks_per_core =
      run_inline ? 1
                 : (4 * static_cast<std::uint64_t>(host_threads) + cores - 1) /
                       cores;
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < cores; ++c) {
    const std::uint64_t count = launch.cores[c].count;
    const std::uint64_t chunks = std::min<std::uint64_t>(
        chunks_per_core, std::max<std::uint64_t>(count, 1));
    for (std::uint64_t k = 0; k < chunks; ++k) {
      tasks.push_back({c, count * k / chunks, count * (k + 1) / chunks});
    }
  }
  if (!run_inline &&
      (*pool == nullptr || (*pool)->num_workers() != host_threads)) {
    *pool = std::make_unique<ThreadPool>(host_threads);
  }

  struct TaskState {
    std::vector<MemEvent> events;
    std::vector<std::byte> scratch;
    WorkGroupRun run;
    std::array<std::uint64_t, kNumOpcodeValues> opcode_tally{};
  };
  std::vector<TaskState> state(tasks.size());
  out->assign(cores, CoreRun());
  const auto group_dims = launch.config.num_groups();

  auto run_task = [&](std::size_t i) -> Status {
    const Task& task = tasks[i];
    const CoreSlice& core = launch.cores[task.core];
    TaskState& s = state[i];
    Bindings bindings = *launch.bindings;
    s.scratch.assign(scratch_bytes, std::byte{0});
    bindings.local_scratch = {
        s.scratch.data(),
        launch.scratch_base + task.core * launch.scratch_stride,
        scratch_bytes};
    StatusOr<Executor> executor =
        Executor::Create(&program, launch.config, std::move(bindings),
                         launch.options.kir_exec, launch.bytecode);
    if (!executor.ok()) return executor.status();
    if (launch.tally_opcodes) executor->set_opcode_tally(s.opcode_tally.data());

    NullMemorySink null_sink;
    RecordingMemorySink recorder(&s.events);
    MemorySink* sink = core.sink != nullptr ? core.sink : &null_sink;
    if (run_inline) {
      executor->set_host_time(core.host_time);
    } else if (!sink->discards_events()) {
      sink = &recorder;
    }
    for (std::uint64_t k = task.begin; k < task.end; ++k) {
      const std::uint64_t g = core.first + k * core.stride;
      MALI_RETURN_IF_ERROR(executor->RunGroup(
          {g % group_dims[0], (g / group_dims[0]) % group_dims[1],
           g / (group_dims[0] * group_dims[1])},
          sink, &s.run));
    }
    return Status::Ok();
  };

  auto replay_task = [&](std::size_t i) -> Status {
    const Task& task = tasks[i];
    MemorySink* sink = launch.cores[task.core].sink;
    TaskState& s = state[i];
    for (const MemEvent& e : s.events) {
      if (e.kind == MemEvent::kAtomic) {
        sink->OnAtomic(e.addr, e.bytes);
      } else {
        sink->OnAccess(e.addr, e.bytes, e.kind == MemEvent::kWrite);
      }
    }
    CoreRun& core = (*out)[task.core];
    core.run.MergeFrom(s.run);
    core.groups += task.end - task.begin;
    for (std::size_t op = 0; op < core.opcode_tally.size(); ++op) {
      core.opcode_tally[op] += s.opcode_tally[op];
    }
    s = TaskState();  // release buffered state as the replay cursor passes
    return Status::Ok();
  };

  return RunOrderedPipeline(
      run_inline ? nullptr : pool->get(), tasks.size(),
      static_cast<std::size_t>(launch.options.ResolvedWindow()), run_task,
      replay_task);
}

StatusOr<WorkGroupRun> RunProgramParallel(const Program& program,
                                          LaunchConfig config,
                                          const Bindings& bindings,
                                          int threads, KirExec engine) {
  if (threads < 1) return InvalidArgumentError("threads must be >= 1");
  // Validate once up front so misuse fails identically to RunProgram, and
  // compile the bytecode once so every task shares it.
  MALI_RETURN_IF_ERROR(ValidateLaunch(program, config, bindings));
  GroupLaunch launch;
  launch.program = &program;
  launch.config = config;
  launch.bindings = &bindings;
  launch.options.threads = threads;
  launch.options.kir_exec = engine;
  if (engine == KirExec::kBytecode) {
    StatusOr<std::shared_ptr<const vm::CompiledProgram>> compiled =
        vm::CompileProgram(program);
    if (!compiled.ok()) return compiled.status();
    launch.bytecode = *std::move(compiled);
  }
  launch.scratch_base = bindings.local_scratch.sim_addr;
  // The whole grid (RunProgram ignores group sub-ranges too), as contiguous
  // row-major slices. Slice boundaries never affect results: counts merge
  // with integer addition and the null sinks drop the access streams.
  const std::uint64_t total = config.total_groups();
  const auto n = static_cast<std::uint64_t>(threads);
  for (std::uint64_t t = 0; t < n; ++t) {
    const std::uint64_t first = total * t / n;
    launch.cores.push_back({first, total * (t + 1) / n - first});
  }
  std::unique_ptr<ThreadPool> pool;
  std::vector<CoreRun> cores;
  MALI_RETURN_IF_ERROR(RunWorkGroups(launch, &pool, &cores));
  WorkGroupRun run;
  for (const CoreRun& core : cores) run.MergeFrom(core.run);
  return run;
}

}  // namespace malisim::kir

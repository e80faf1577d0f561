// tinycl: an OpenCL-1.1-Full-Profile-shaped host runtime over the Mali-T604
// device model.
//
// The API mirrors the host-side objects and semantics the paper's §III-A
// optimizations live in:
//  * Buffers carry CL_MEM_* flags. kUseHostPtr buffers get a driver-side
//    shadow (the Mali cannot address plain malloc memory) and must be moved
//    with EnqueueWrite/ReadBuffer — the copy cost is modelled. kAllocHostPtr
//    buffers live in driver memory mapped into both address spaces (unified
//    memory), and Map/Unmap are cheap cache-maintenance operations with no
//    copy: the paper's recommended zero-copy path.
//  * EnqueueNDRange with a null local size invokes the driver work-group
//    heuristic, reproducing "the driver is not always capable of doing a
//    good selection"; passing an explicit local size is the manual tuning
//    the paper recommends.
//  * Programs are built at runtime (clBuildProgram); the build runs the IR
//    pass pipeline and the Mali kernel compiler with its modelled erratum
//    and resource accounting. Build failures land in the build log.
//
// The runtime executes eagerly — every enqueue runs to completion and
// returns an Event carrying modelled duration and an activity profile for
// the power model — but each command also appends a node to the queue's
// modelled-time event graph. In the default in-order mode every node
// depends on its predecessor and the scheduled makespan equals the eager
// sum bit-for-bit; switching the queue to async mode lets callers express
// explicit wait lists so independent kernels and transfers overlap in
// modelled time (functional results are unchanged — the graph only changes
// what the clock would have read). CommandQueue::Finish() exists for API
// fidelity.
//
// The context dispatches kernels through the sim::Device backend interface:
// kMali (the Mali-T604 model, default), kA15 (both Cortex-A15 cores) and
// kHetero (a co-execution backend splitting each NDRange across both).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/sim_options.h"
#include "common/status.h"
#include "cpu/a15_device.h"
#include "fault/fault_plan.h"
#include "kir/exec_types.h"
#include "kir/program.h"
#include "mali/compiler.h"
#include "mali/t604_device.h"
#include "ocl/cl_error.h"
#include "power/profile.h"
#include "sim/device.h"
#include "sim/hetero_device.h"
#include "sim/scheduler.h"

namespace malisim::fault {
class FaultInjector;
}  // namespace malisim::fault

namespace malisim::mali {
class CompileCache;
}  // namespace malisim::mali

namespace malisim::ocl {

/// OpenCL device type (CL_DEVICE_TYPE_GPU / _CPU / a fused device). This is
/// the backend enum of the sim::Device layer: kMali is the Mali-T604 model,
/// kA15 runs kernels across both Cortex-A15 cores — the "OpenCL on the
/// application processor" configuration the related-work systems in §VI
/// use — and kHetero co-executes each NDRange on both. The A15 path has no
/// Mali kernel compiler, so neither the FP64 erratum nor the register
/// budget applies (matching the paper: the CPU versions of amcd ran fine
/// in FP64).
using DeviceType = sim::BackendKind;

/// CL_MEM_* flag bitmask.
enum MemFlags : std::uint32_t {
  kMemReadWrite = 1u << 0,
  kMemReadOnly = 1u << 1,
  kMemWriteOnly = 1u << 2,
  kMemUseHostPtr = 1u << 3,    // wrap app malloc memory (shadow + copies)
  kMemAllocHostPtr = 1u << 4,  // driver-allocated, zero-copy mappable
  kMemCopyHostPtr = 1u << 5,   // initialize from host_ptr at creation
};

/// Host-side cost parameters (driver + Cortex-A15 doing the host work).
struct HostParams {
  double memcpy_bytes_per_sec = 2.2e9;   // A15 memcpy to/from DRAM
  double map_overhead_sec = 18e-6;       // cache maintenance + syscall
  double unmap_overhead_sec = 12e-6;
  double enqueue_overhead_sec = 9e-6;    // per command submission
};

/// Completed-command descriptor (the profiling-enabled cl_event analogue).
struct Event {
  enum class Kind { kWrite, kRead, kMap, kUnmap, kKernel };
  Kind kind = Kind::kKernel;
  double seconds = 0.0;
  power::ActivityProfile profile;
  /// Kernel commands only: functional counts and device stats.
  kir::WorkGroupRun run;
  StatRegistry stats;
  /// This command's node in the queue's modelled-time event graph; pass it
  /// in CommandQueue::SetWaitList to make later async commands depend on it.
  sim::EventId node = sim::kNullEvent;
};

class Context;

/// A cl_mem analogue. Create through Context::CreateBuffer.
class Buffer {
 public:
  std::uint64_t size() const { return size_; }
  std::uint32_t flags() const { return flags_; }
  std::uint64_t sim_addr() const { return sim_addr_; }

  /// Device-visible storage (tests and the zero-copy map path).
  std::byte* device_storage() { return storage_.data(); }
  const std::byte* device_storage() const { return storage_.data(); }

 private:
  friend class Context;
  friend class CommandQueue;

  Buffer() = default;

  std::uint32_t flags_ = kMemReadWrite;
  std::uint64_t size_ = 0;
  std::uint64_t sim_addr_ = 0;
  AlignedBuffer storage_;   // driver allocation (GPU-mapped)
  void* user_ptr_ = nullptr;  // kUseHostPtr app memory
  bool mapped_ = false;
};

/// A cl_program analogue: a set of KIR kernels built for the device.
class Program {
 public:
  /// clBuildProgram: IR pass pipeline + Mali kernel compile for every
  /// kernel. On failure returns the aggregate error; per-kernel diagnostics
  /// are in build_log().
  Status Build();

  bool built() const { return built_; }
  const std::string& build_log() const { return build_log_; }

  /// Compiled form of a kernel, or NotFound / FailedPrecondition.
  StatusOr<const mali::CompiledKernel*> GetCompiled(const std::string& name) const;
  const kir::Program* GetSource(const std::string& name) const;

 private:
  friend class Context;
  explicit Program(std::vector<kir::Program> kernels,
                   mali::MaliTimingParams timing,
                   mali::MaliCompilerParams compiler);

  std::vector<kir::Program> kernels_;
  mali::MaliTimingParams timing_;
  mali::MaliCompilerParams compiler_;
  std::map<std::string, mali::CompiledKernel> compiled_;
  std::string build_log_;
  bool built_ = false;
  /// Recorder snapshot from CreateProgram time, used only to attribute
  /// Build() host time to the compile phase. Never read by the compile
  /// itself.
  obs::Recorder* recorder_ = nullptr;
  /// Shared content-addressed cache for the pure half of the compile
  /// (nullptr = compile from scratch, the historical behaviour). A cache
  /// hit skips the IR passes and AnalyzeForMali but still runs
  /// ApplyBuildFaults, so the injector decision streams are identical on
  /// hit and miss.
  mali::CompileCache* compile_cache_ = nullptr;
};

/// A cl_kernel analogue: positional argument binding over a built program
/// kernel. OpenCL numbers arguments across buffers and scalars in
/// declaration order; tinycl keeps the same convention.
class Kernel {
 public:
  Status SetArgBuffer(std::uint32_t index, std::shared_ptr<Buffer> buffer);
  Status SetArgScalar(std::uint32_t index, kir::ScalarValue value);
  Status SetArgI32(std::uint32_t index, std::int32_t v) {
    return SetArgScalar(index, kir::ScalarValue::I32V(v));
  }
  Status SetArgF32(std::uint32_t index, float v) {
    return SetArgScalar(index, kir::ScalarValue::F32V(v));
  }
  Status SetArgF64(std::uint32_t index, double v) {
    return SetArgScalar(index, kir::ScalarValue::F64V(v));
  }

  const std::string& name() const { return name_; }

 private:
  friend class Context;
  friend class CommandQueue;
  Kernel(std::string name, std::shared_ptr<const Program> program,
         const kir::Program* source, const mali::CompiledKernel* compiled);

  /// Builds interpreter bindings; fails if any argument is unset.
  StatusOr<kir::Bindings> MakeBindings() const;

  std::string name_;
  /// Pins the program: source_ and compiled_ point into its storage, and a
  /// kernel may outlive the caller's program handle (clRetainProgram
  /// semantics of the real runtime).
  std::shared_ptr<const Program> program_;
  const kir::Program* source_;
  const mali::CompiledKernel* compiled_;
  struct ArgSlot {
    bool is_buffer = false;
    bool set = false;
    std::shared_ptr<Buffer> buffer;
    kir::ScalarValue scalar;
  };
  std::vector<ArgSlot> args_;
};

/// A cl_command_queue analogue (in-order, synchronous, profiling always on).
class CommandQueue {
 public:
  /// clEnqueueWriteBuffer: host copy user memory -> device storage.
  StatusOr<Event> EnqueueWriteBuffer(Buffer& buffer, const void* src,
                                     std::uint64_t bytes,
                                     std::uint64_t offset = 0);
  /// clEnqueueReadBuffer: device storage -> user memory.
  StatusOr<Event> EnqueueReadBuffer(Buffer& buffer, void* dst,
                                    std::uint64_t bytes,
                                    std::uint64_t offset = 0);
  /// clEnqueueCopyBuffer: device-side copy (the GPU's LS path moves it; no
  /// host involvement, so it is cheaper per byte than Write/ReadBuffer).
  StatusOr<Event> EnqueueCopyBuffer(Buffer& src, Buffer& dst,
                                    std::uint64_t bytes,
                                    std::uint64_t src_offset = 0,
                                    std::uint64_t dst_offset = 0);
  /// clEnqueueFillBuffer: pattern fill performed on the device.
  StatusOr<Event> EnqueueFillBuffer(Buffer& buffer, const void* pattern,
                                    std::uint64_t pattern_bytes,
                                    std::uint64_t bytes,
                                    std::uint64_t offset = 0);
  /// clEnqueueMapBuffer on a kMemAllocHostPtr buffer: zero-copy, returns the
  /// unified-memory pointer. On a kMemUseHostPtr buffer the driver must
  /// copy out to the app allocation first (modelled), matching §III-A.
  StatusOr<void*> MapBuffer(Buffer& buffer, Event* event = nullptr);
  Status UnmapBuffer(Buffer& buffer, void* mapped, Event* event = nullptr);

  /// clEnqueueNDRangeKernel. `local` may be nullptr: the driver heuristic
  /// picks the work-group size (§III-A "Load distribution").
  StatusOr<Event> EnqueueNDRange(Kernel& kernel, std::uint32_t work_dim,
                                 const std::uint64_t* global,
                                 const std::uint64_t* local);

  /// clFinish: execution is eager, so this only exists for fidelity.
  Status Finish() { return Status::Ok(); }

  /// Sum of modelled seconds of everything enqueued since construction —
  /// the serialized (in-order) clock, independent of the async mode.
  double total_seconds() const { return total_seconds_; }

  // --- modelled-time event graph ----------------------------------------
  // Every enqueue appends a node. In the default in-order mode each node
  // depends on the previous one, so ScheduledSeconds() == total_seconds()
  // bit-for-bit. In async mode a node depends only on the wait list staged
  // with SetWaitList (empty → no dependencies), and the scheduler overlaps
  // independent work: kernels on the compute lane, device-side copies and
  // fills on the transfer lane, host copies and map/unmap on the host lane.

  /// Switches dependency tracking for subsequently enqueued commands.
  void set_async(bool async) { async_ = async; }
  bool async() const { return async_; }
  /// Stages the dependency list for the next async enqueue (consumed by
  /// it). Ignored in in-order mode.
  void SetWaitList(std::vector<sim::EventId> wait_list) {
    pending_wait_ = std::move(wait_list);
  }
  /// Appends a zero-cost barrier node depending on every command enqueued
  /// so far (clEnqueueBarrier); returns its node id.
  sim::EventId EnqueueBarrier();
  /// List-schedules the graph and returns the modelled makespan.
  StatusOr<double> ScheduledSeconds() const;
  /// Full schedule (per-event start/finish, lane busy time, critical path).
  StatusOr<sim::ScheduleResult> Schedule() const {
    return sim::ScheduleEvents(graph_);
  }
  /// Schedules the queue's event graph and appends an obs::GraphRecord
  /// (per-node start/finish, lane busy time, critical-path marking) to the
  /// context's recorder so exporters can render the causal timeline. No-op
  /// when the graph is empty or no recorder is attached.
  Status RecordScheduledGraph(const std::string& label);
  const sim::EventGraph& graph() const { return graph_; }
  /// Node id of the most recently enqueued command (kNullEvent if none).
  sim::EventId last_event() const { return last_event_; }

 private:
  friend class Context;
  explicit CommandQueue(Context* context) : context_(context) {}

  Event HostCopyEvent(Event::Kind kind, std::uint64_t bytes, double overhead);
  /// Appends a node for a just-executed command: in-order mode chains it on
  /// the previous node, async mode consumes the staged wait list.
  sim::EventId AddGraphNode(sim::CmdKind kind, std::string label,
                            double seconds, int lane);
  /// Appends a CommandRecord when the context has a recorder attached.
  void RecordCommand(const char* kind, const std::string& detail,
                     std::uint64_t bytes, double seconds);
  /// Asks the context's fault injector (if any) whether this operation
  /// faults; returns the injected error Status when it trips. Called
  /// before any state is mutated so a failed command leaves buffers and
  /// map flags untouched.
  Status MaybeInject(fault::FaultSite site, const std::string& key);

  Context* context_;
  double total_seconds_ = 0.0;
  sim::EventGraph graph_;
  sim::EventId last_event_ = sim::kNullEvent;
  std::vector<sim::EventId> pending_wait_;
  bool async_ = false;
};

/// A cl_context analogue owning the device model, the unified simulated
/// address space, and all objects created from it.
class Context {
 public:
  explicit Context(
      const mali::MaliTimingParams& timing = mali::MaliTimingParams(),
      const mali::MaliMemoryConfig& memory = mali::MaliMemoryConfig(),
      const mali::MaliCompilerParams& compiler = mali::MaliCompilerParams(),
      const HostParams& host = HostParams());

  /// Context for another backend in the platform (clCreateContextFromType
  /// with CL_DEVICE_TYPE_CPU, or the fused hetero device). Context(kMali)
  /// is identical to the default constructor.
  explicit Context(DeviceType type);

  /// clCreateBuffer. host_ptr is required for kMemUseHostPtr/kMemCopyHostPtr.
  StatusOr<std::shared_ptr<Buffer>> CreateBuffer(std::uint32_t flags,
                                                 std::uint64_t bytes,
                                                 void* host_ptr = nullptr);

  /// clCreateProgramWithSource analogue (KIR plays the role of OpenCL C).
  std::shared_ptr<Program> CreateProgram(std::vector<kir::Program> kernels);

  /// clCreateKernel.
  StatusOr<std::shared_ptr<Kernel>> CreateKernel(
      const std::shared_ptr<Program>& program, const std::string& name);

  CommandQueue& queue() { return queue_; }
  DeviceType device_type() const { return type_; }
  mali::MaliT604Device& device() { return device_; }
  cpu::CortexA15Device& cpu_device() { return cpu_device_; }
  sim::HeteroDevice& hetero_device() { return hetero_; }

  /// The sim::Device the queue dispatches kernels to, per device_type().
  sim::Device& backend() {
    switch (type_) {
      case DeviceType::kA15:
        return cpu_device_;
      case DeviceType::kHetero:
        return hetero_;
      case DeviceType::kMali:
        break;
    }
    return device_;
  }
  const sim::Device& backend() const {
    return const_cast<Context*>(this)->backend();
  }

  /// GPU share of each NDRange on the hetero backend: 0.0 = all-A15,
  /// 1.0 = all-Mali, negative = self-tuning (default). No effect on the
  /// single-device backends.
  void set_hetero_ratio(double ratio) { hetero_.set_ratio(ratio); }

  /// Host-side simulation options, forwarded to both device models.
  /// threads == 1 (default) runs work-groups inline; threads > 1 runs them
  /// on a pool with record/replay, which is guaranteed to produce
  /// bit-identical buffers, counts and modelled times.
  void set_sim_options(const SimOptions& options) {
    sim_options_ = options;
    device_.set_sim_options(options);
    cpu_device_.set_sim_options(options);
  }
  const SimOptions& sim_options() const { return sim_options_; }

  /// Attaches a fault injector (nullptr detaches) to the runtime, the
  /// kernel compiler (programs created afterwards) and the GPU device
  /// model. With no injector — or one whose plan has every rate at zero —
  /// behaviour is bit-identical to the uninstrumented runtime.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
    compiler_.injector = injector;
    device_.set_fault_injector(injector);
  }
  fault::FaultInjector* fault_injector() const { return fault_injector_; }

  /// Attaches a process-wide compile cache (nullptr detaches); programs
  /// created afterwards share pure compile results through it. Safe to
  /// share one cache across contexts on different threads. Never changes
  /// compile results or fault schedules — only host-side compile work.
  void set_compile_cache(mali::CompileCache* cache) { compile_cache_ = cache; }
  mali::CompileCache* compile_cache() const { return compile_cache_; }

  /// Attaches an observability recorder to the runtime and both device
  /// models: kernel launches, transfers and map/unmap traffic are recorded.
  /// nullptr detaches. Never affects modelled times.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    device_.set_recorder(recorder);
    cpu_device_.set_recorder(recorder);
  }
  obs::Recorder* recorder() const { return recorder_; }

  const HostParams& host_params() const { return host_; }
  const mali::MaliTimingParams& timing() const { return timing_; }

  /// clGetDeviceInfo analogue.
  struct DeviceInfo {
    std::string name;
    DeviceType type;
    std::uint32_t compute_units;
    std::uint64_t max_work_group_size;
    bool fp64;          // CL_FP_DENORM... both devices are Full Profile
    double clock_hz;
  };
  DeviceInfo device_info() const;

  /// Device info strings for API fidelity.
  static constexpr const char* kDeviceName = "Mali-T604 (modelled)";
  static constexpr const char* kCpuDeviceName = "Cortex-A15 MP2 (modelled)";
  static constexpr std::uint64_t kMaxWorkGroupSize = 256;

 private:
  friend class CommandQueue;

  DeviceType type_ = DeviceType::kMali;
  mali::MaliTimingParams timing_;
  mali::MaliCompilerParams compiler_;
  HostParams host_;
  mali::MaliT604Device device_;
  cpu::CortexA15Device cpu_device_;
  // Declared after its children: the HeteroDevice constructor reads their
  // caps() to build the fused capability record.
  sim::HeteroDevice hetero_;
  obs::Recorder* recorder_ = nullptr;
  fault::FaultInjector* fault_injector_ = nullptr;
  mali::CompileCache* compile_cache_ = nullptr;
  SimOptions sim_options_;
  CommandQueue queue_;
  std::uint64_t next_sim_addr_ = 0x1000'0000ULL;
};

}  // namespace malisim::ocl

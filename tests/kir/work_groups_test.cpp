// RunWorkGroups, the work-group execution skeleton both device models
// share: every modelled core must see the same memory-event stream, the
// same WorkGroupRun and the same opcode tally whether the launch runs
// inline or on a pool, for both partition rules the devices use.
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "kir/builder.h"
#include "kir/interp.h"

namespace malisim::kir {
namespace {

constexpr std::uint64_t kWidth = 16;   // global size, dimension 0
constexpr std::uint64_t kHeight = 6;   // global size, dimension 1
constexpr std::uint64_t kItems = kWidth * kHeight;
constexpr std::uint64_t kGroups = (kWidth / 4) * (kHeight / 2);
constexpr std::uint64_t kScratchBase = 0x7000'0000ULL;
constexpr std::uint64_t kScratchStride = 1ULL << 20;

/// Sink that keeps every event, atomics as single kAtomic events.
class LoggingSink final : public MemorySink {
 public:
  void OnAccess(std::uint64_t addr, std::uint32_t bytes,
                bool is_write) override {
    events.push_back(
        {addr, bytes, is_write ? MemEvent::kWrite : MemEvent::kRead});
  }
  void OnAtomic(std::uint64_t addr, std::uint32_t bytes) override {
    events.push_back({addr, bytes, MemEvent::kAtomic});
    ++atomics;
  }

  std::vector<MemEvent> events;
  std::uint64_t atomics = 0;
};

/// out[i] = in[i] + tile[lid ^ 1] after a barrier, plus one global atomic
/// per work-item. With `fault_group` >= 0, the group with that linear id
/// also loads past the end of `in`.
Program MixKernel(std::int64_t fault_group) {
  KernelBuilder kb("mix");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  auto count = kb.ArgBuffer("count", ScalarType::kI32, ArgKind::kBufferRW);
  auto tile = kb.LocalArray("tile", ScalarType::kF32, 8);
  Val idx = kb.Binary(Opcode::kAdd,
                      kb.Binary(Opcode::kMul, kb.GlobalId(1), kb.GlobalSize(0)),
                      kb.GlobalId(0));
  Val lid = kb.Binary(Opcode::kAdd,
                      kb.Binary(Opcode::kMul, kb.LocalId(1), kb.LocalSize(0)),
                      kb.LocalId(0));
  Val x = kb.Load(in, idx);
  kb.Store(tile, lid, x);
  kb.Barrier();
  Val peer = kb.Binary(Opcode::kXor, lid, kb.ConstI(I32(), 1));
  kb.Store(out, idx, kb.Binary(Opcode::kAdd, x, kb.Load(tile, peer)));
  kb.AtomicAdd(count, kb.ConstI(I32(), 0), kb.ConstI(I32(), 1));
  if (fault_group >= 0) {
    Val group = kb.Binary(
        Opcode::kAdd, kb.Binary(Opcode::kMul, kb.GroupId(1), kb.NumGroups(0)),
        kb.GroupId(0));
    kb.If(kb.CmpEq(group, kb.ConstI(I32(), fault_group)), [&] {
      kb.Store(out, idx, kb.Load(in, kb.ConstI(I32(), 1000)));
    });
  }
  StatusOr<Program> p = kb.Build();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *std::move(p);
}

enum class Partition { kRoundRobin, kContiguous };

struct Outcome {
  Status status = Status::Ok();
  std::vector<CoreRun> cores;
  std::vector<LoggingSink> sinks;
  std::vector<float> out;
  std::int32_t count = 0;
};

Outcome RunLaunch(const Program& program, Partition partition,
                  int host_threads, std::unique_ptr<ThreadPool>* pool) {
  std::vector<float> in(kItems);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 0.5f + 0.25f * static_cast<float>(i);
  }
  Outcome o;
  o.out.assign(kItems, 0.0f);
  Bindings b;
  b.buffers = {
      {reinterpret_cast<std::byte*>(in.data()), 0x1000, kItems * 4},
      {reinterpret_cast<std::byte*>(o.out.data()), 0x10000, kItems * 4},
      {reinterpret_cast<std::byte*>(&o.count), 0x20000, 4}};

  const std::uint64_t cores = partition == Partition::kRoundRobin ? 4 : 2;
  o.sinks.resize(cores);
  GroupLaunch launch;
  launch.program = &program;
  launch.config.work_dim = 2;
  launch.config.global_size = {kWidth, kHeight, 1};
  launch.config.local_size = {4, 2, 1};
  launch.bindings = &b;
  launch.options.threads = host_threads;
  launch.options.replay_window = 2;
  launch.scratch_base = kScratchBase;
  launch.scratch_stride = kScratchStride;
  launch.tally_opcodes = true;
  for (std::uint64_t c = 0; c < cores; ++c) {
    if (partition == Partition::kRoundRobin) {
      launch.cores.push_back(
          {c, (kGroups - c + cores - 1) / cores, cores, &o.sinks[c]});
    } else {
      const std::uint64_t first = kGroups * c / cores;
      launch.cores.push_back(
          {first, kGroups * (c + 1) / cores - first, 1, &o.sinks[c]});
    }
  }
  o.status = RunWorkGroups(launch, pool, &o.cores);
  return o;
}

bool SameBytes(const WorkGroupRun& a, const WorkGroupRun& b) {
  static_assert(std::has_unique_object_representations_v<WorkGroupRun>);
  return std::memcmp(&a, &b, sizeof(WorkGroupRun)) == 0;
}

bool SameEvents(const std::vector<MemEvent>& a,
                const std::vector<MemEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].addr != b[i].addr || a[i].bytes != b[i].bytes ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

class WorkGroupsTest : public ::testing::TestWithParam<Partition> {};

TEST_P(WorkGroupsTest, IdenticalAtEveryHostThreadCount) {
  const Program program = MixKernel(/*fault_group=*/-1);
  std::unique_ptr<ThreadPool> pool;
  const Outcome inline_run = RunLaunch(program, GetParam(), 1, &pool);
  ASSERT_TRUE(inline_run.status.ok()) << inline_run.status.ToString();
  EXPECT_EQ(pool, nullptr) << "one host thread must not start a pool";
  EXPECT_EQ(inline_run.count, static_cast<std::int32_t>(kItems));

  std::uint64_t groups = 0;
  for (std::size_t c = 0; c < inline_run.cores.size(); ++c) {
    groups += inline_run.cores[c].groups;
    EXPECT_EQ(inline_run.cores[c].groups,
              inline_run.cores[c].run.work_items / 8);
    // __local traffic lands in the core's own scratch window.
    const std::uint64_t scratch = kScratchBase + c * kScratchStride;
    for (const MemEvent& e : inline_run.sinks[c].events) {
      if (e.addr >= kScratchBase) {
        EXPECT_GE(e.addr, scratch);
        EXPECT_LT(e.addr, scratch + kScratchStride);
      }
    }
  }
  EXPECT_EQ(groups, kGroups);

  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const Outcome pooled = RunLaunch(program, GetParam(), threads, &pool);
    ASSERT_TRUE(pooled.status.ok()) << pooled.status.ToString();
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->num_workers(), threads);
    EXPECT_EQ(pooled.out, inline_run.out);
    EXPECT_EQ(pooled.count, inline_run.count);
    ASSERT_EQ(pooled.cores.size(), inline_run.cores.size());
    for (std::size_t c = 0; c < pooled.cores.size(); ++c) {
      SCOPED_TRACE(c);
      EXPECT_TRUE(SameEvents(pooled.sinks[c].events,
                             inline_run.sinks[c].events));
      EXPECT_TRUE(SameBytes(pooled.cores[c].run, inline_run.cores[c].run));
      EXPECT_EQ(pooled.cores[c].groups, inline_run.cores[c].groups);
      EXPECT_EQ(pooled.cores[c].opcode_tally,
                inline_run.cores[c].opcode_tally);
    }
  }
}

TEST_P(WorkGroupsTest, PooledReplayDeliversEveryAtomicThroughOnAtomic) {
  const Program program = MixKernel(/*fault_group=*/-1);
  std::unique_ptr<ThreadPool> pool;
  const Outcome pooled = RunLaunch(program, GetParam(), 4, &pool);
  ASSERT_TRUE(pooled.status.ok()) << pooled.status.ToString();
  std::uint64_t atomics = 0;
  for (std::size_t c = 0; c < pooled.cores.size(); ++c) {
    EXPECT_EQ(pooled.sinks[c].atomics, pooled.cores[c].run.atomics);
    atomics += pooled.sinks[c].atomics;
  }
  EXPECT_EQ(atomics, kItems);
}

TEST_P(WorkGroupsTest, FaultReportsTheSameStatusAtEveryThreadCount) {
  const Program program = MixKernel(/*fault_group=*/5);
  std::unique_ptr<ThreadPool> pool;
  const Outcome inline_run = RunLaunch(program, GetParam(), 1, &pool);
  ASSERT_FALSE(inline_run.status.ok());
  EXPECT_EQ(inline_run.status.code(), ErrorCode::kOutOfRange);
  for (int threads : {2, 4}) {
    const Outcome pooled = RunLaunch(program, GetParam(), threads, &pool);
    EXPECT_EQ(pooled.status.ToString(), inline_run.status.ToString())
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, WorkGroupsTest,
                         ::testing::Values(Partition::kRoundRobin,
                                           Partition::kContiguous),
                         [](const ::testing::TestParamInfo<Partition>& p) {
                           return p.param == Partition::kRoundRobin
                                      ? std::string("RoundRobin")
                                      : std::string("Contiguous");
                         });

}  // namespace
}  // namespace malisim::kir

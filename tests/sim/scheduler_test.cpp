// Tests for the event-graph scheduler: deterministic list scheduling of
// command DAGs onto modelled lanes (sim/scheduler.h). The chain invariant —
// a fully linearized graph retires to exactly the eager queue's sum — is
// what makes the async command-queue refactor behavior-preserving.
#include "sim/scheduler.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace malisim::sim {
namespace {

EventId Add(EventGraph& g, double seconds, int lane,
            std::vector<EventId> deps = {}) {
  return g.Add(CmdKind::kKernel, "k", seconds, lane,
               std::span<const EventId>(deps));
}

TEST(SchedulerTest, EmptyGraphSchedulesToZero) {
  EventGraph g;
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->makespan_sec, 0.0);
  EXPECT_EQ(result->serial_sec, 0.0);
  EXPECT_TRUE(result->order.empty());
}

TEST(SchedulerTest, ChainEqualsEagerSumBitForBit) {
  // In-order queue semantics: each node depends on the previous one. The
  // makespan must equal the insertion-order sum with the same accumulation
  // order — bit-identical, not just approximately equal.
  EventGraph g;
  const double durations[] = {1e-3, 3.7e-5, 0.25, 1.0 / 3.0, 5.5e-9};
  EventId prev = kNullEvent;
  double eager = 0.0;
  for (double d : durations) {
    prev = prev == kNullEvent ? Add(g, d, kLaneCompute)
                              : Add(g, d, kLaneCompute, {prev});
    eager += d;
  }
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->makespan_sec, eager);  // exact FP equality
  EXPECT_EQ(result->serial_sec, eager);
  EXPECT_EQ(result->critical_path_sec, eager);
}

TEST(SchedulerTest, DiamondDependency) {
  /*      a(1)
         /    \
      b(2)    c(3)   (different lanes -> run concurrently)
         \    /
          d(1)       */
  EventGraph g;
  const EventId a = Add(g, 1.0, kLaneCompute);
  const EventId b = Add(g, 2.0, kLaneCompute, {a});
  const EventId c = Add(g, 3.0, kLaneTransfer, {a});
  const EventId d = Add(g, 1.0, kLaneCompute, {b, c});
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  // b and c overlap after a; d starts when the slower branch (c) finishes.
  EXPECT_DOUBLE_EQ(result->makespan_sec, 1.0 + 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(result->serial_sec, 7.0);
  EXPECT_DOUBLE_EQ(result->critical_path_sec, 5.0);
  ASSERT_EQ(result->order.size(), 4u);
  const auto at = [&](EventId id) {
    for (const ScheduledEvent& e : result->order) {
      if (e.id == id) return e;
    }
    ADD_FAILURE() << "node " << id << " missing from order";
    return ScheduledEvent{};
  };
  EXPECT_DOUBLE_EQ(at(b).start_sec, 1.0);
  EXPECT_DOUBLE_EQ(at(c).start_sec, 1.0);
  EXPECT_DOUBLE_EQ(at(d).start_sec, 4.0);
  EXPECT_DOUBLE_EQ(at(d).finish_sec, 5.0);
}

TEST(SchedulerTest, OutOfOrderRetirement) {
  // A transfer gated on a slow kernel is enqueued BEFORE an independent
  // transfer; the independent one retires first despite its higher id, and
  // finishes long before the commands enqueued ahead of it.
  EventGraph g;
  const EventId slow = Add(g, 1.0, kLaneCompute);
  const EventId gated = Add(g, 0.5, kLaneTransfer, {slow});
  const EventId indep = Add(g, 0.1, kLaneTransfer);
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->order.size(), 3u);
  EXPECT_EQ(result->order[0].id, slow);
  EXPECT_EQ(result->order[1].id, indep);
  EXPECT_EQ(result->order[2].id, gated);
  EXPECT_DOUBLE_EQ(result->order[1].finish_sec, 0.1);
  EXPECT_DOUBLE_EQ(result->makespan_sec, 1.5);
}

TEST(SchedulerTest, SameLaneSerializesIndependentNodes) {
  // Independence in the graph does not mean concurrency on one engine: two
  // kernels share the compute lane and must queue behind each other.
  EventGraph g;
  Add(g, 1.0, kLaneCompute);
  Add(g, 2.0, kLaneCompute);
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->makespan_sec, 3.0);
  EXPECT_DOUBLE_EQ(result->critical_path_sec, 2.0);
}

TEST(SchedulerTest, TransferKernelOverlapAccounting) {
  // A kernel and an independent device-side copy overlap; lane busy
  // accounting must charge each engine its own seconds.
  EventGraph g;
  g.Add(CmdKind::kKernel, "k", 2.0, kLaneCompute, {});
  g.Add(CmdKind::kCopy, "", 1.5, kLaneTransfer, {});
  g.Add(CmdKind::kWrite, "", 0.25, kLaneHost, {});
  auto result = ScheduleEvents(g);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->makespan_sec, 2.0);
  EXPECT_DOUBLE_EQ(result->serial_sec, 3.75);
  ASSERT_EQ(result->lane_busy_sec.size(), 3u);
  EXPECT_DOUBLE_EQ(result->lane_busy_sec[kLaneHost], 0.25);
  EXPECT_DOUBLE_EQ(result->lane_busy_sec[kLaneCompute], 2.0);
  EXPECT_DOUBLE_EQ(result->lane_busy_sec[kLaneTransfer], 1.5);
}

TEST(SchedulerTest, UnknownDependencyIsInvalidArgument) {
  EventGraph g;
  EventId bogus = 99;
  g.Add(CmdKind::kKernel, "k", 1.0, kLaneCompute,
        std::span<const EventId>(&bogus, 1));
  auto result = ScheduleEvents(g);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SchedulerTest, SelfDependencyIsReportedAsCycle) {
  EventGraph g;
  EventId self = 0;
  g.Add(CmdKind::kKernel, "k", 1.0, kLaneCompute,
        std::span<const EventId>(&self, 1));
  auto result = ScheduleEvents(g);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(SchedulerTest, DeterministicAcrossRepeats) {
  EventGraph g;
  const EventId a = Add(g, 0.125, kLaneCompute);
  const EventId b = Add(g, 0.5, kLaneTransfer, {a});
  Add(g, 0.25, kLaneCompute, {a});
  Add(g, 0.0625, kLaneHost, {b});
  auto first = ScheduleEvents(g);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 10; ++i) {
    auto again = ScheduleEvents(g);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->makespan_sec, first->makespan_sec);
    ASSERT_EQ(again->order.size(), first->order.size());
    for (std::size_t j = 0; j < first->order.size(); ++j) {
      EXPECT_EQ(again->order[j].id, first->order[j].id);
      EXPECT_EQ(again->order[j].start_sec, first->order[j].start_sec);
    }
  }
}

}  // namespace
}  // namespace malisim::sim

// Retry-with-backoff and the graceful-degradation ladder.
#include <string>
#include <vector>

#include "fault/breaker.h"
#include "fault/degrade.h"
#include "fault/retry.h"
#include "gtest/gtest.h"

namespace malisim::fault {
namespace {

TEST(TaxonomyTest, TransientAndDegradableSets) {
  EXPECT_TRUE(IsTransient(UnavailableError("x")));
  EXPECT_TRUE(IsTransient(AllocationFailureError("x")));
  EXPECT_FALSE(IsTransient(ResourceExhaustedError("x")));
  EXPECT_FALSE(IsTransient(InvalidArgumentError("x")));

  EXPECT_TRUE(IsDegradable(UnavailableError("x")));
  EXPECT_TRUE(IsDegradable(AllocationFailureError("x")));
  EXPECT_TRUE(IsDegradable(ResourceExhaustedError("x")));
  EXPECT_TRUE(IsDegradable(BuildFailureError("x")));
  EXPECT_TRUE(IsDegradable(DeadlineExceededError("x")));
  EXPECT_FALSE(IsDegradable(InvalidArgumentError("x")));
  EXPECT_FALSE(IsDegradable(NotFoundError("x")));
}

TEST(RetryTest, SucceedsFirstTryNoRetries) {
  RetryPolicy policy;
  RetryStats stats;
  Status result = RetryWithBackoff(
      policy, [] { return Status::Ok(); }, &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 0.0);
}

TEST(RetryTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return calls < 3 ? UnavailableError("hiccup") : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  // 1e-3 + 2e-3 of exponential backoff, accounted but never modelled.
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 3e-3);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("persistent");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2);
}

TEST(RetryTest, NeverRetriesNonTransient) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status result = RetryWithBackoff(policy, [&calls]() -> Status {
    ++calls;
    return ResourceExhaustedError("registers");
  });
  EXPECT_EQ(result.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, TotalBackoffCapStopsRetrying) {
  // base 1e-3, doubling: backoffs 1e-3, 2e-3, 4e-3... A cap of 2.5e-3
  // admits the first retry (1e-3) but not the second (1e-3 + 2e-3 > cap):
  // the retry loop must give up rather than overrun the caller's deadline
  // budget, even with attempts left.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.max_total_backoff_sec = 2.5e-3;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("storm");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_LE(stats.backoff_sec, policy.max_total_backoff_sec);
}

TEST(RetryTest, TotalBackoffCapZeroMeansUnbounded) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.max_total_backoff_sec = 0.0;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return UnavailableError("storm");
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(stats.retries, 5);
}

TEST(RetryTest, TotalBackoffCapNeverBlocksTheFirstAttempt) {
  // Even a cap too small for any backoff still runs the operation once —
  // the cap bounds waiting, not work.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.max_total_backoff_sec = 1e-9;
  RetryStats stats;
  int calls = 0;
  Status result = RetryWithBackoff(
      policy,
      [&calls]() -> Status {
        ++calls;
        return calls == 1 ? UnavailableError("once") : Status::Ok();
      },
      &stats);
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.backoff_sec, 0.0);
}

TEST(RetryTest, WorksWithStatusOr) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  StatusOr<int> result = RetryWithBackoff(policy, [&calls]() -> StatusOr<int> {
    ++calls;
    if (calls < 2) return UnavailableError("hiccup");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

/// Fake rung i returns outcomes[i] (its index on success), charging
/// spent[i] modelled seconds when given, and counts its calls.
std::vector<Rung<int>> MakeRungs(std::vector<Status> outcomes,
                                 std::vector<int>* calls,
                                 std::vector<double> spent = {}) {
  std::vector<Rung<int>> rungs;
  calls->assign(outcomes.size(), 0);  // size up front: rungs keep pointers in
  spent.resize(outcomes.size(), 0.0);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    Status status = outcomes[i];
    int* counter = &(*calls)[i];
    const double seconds = spent[i];
    rungs.push_back({"rung-" + std::to_string(i),
                     [status, counter, i, seconds](double) -> RungAttempt<int> {
                       ++*counter;
                       if (!status.ok()) return {status, {}, seconds};
                       return {static_cast<int>(i), {}, seconds};
                     }});
  }
  return rungs;
}

/// The steps of the rungs that failed before the walk ended.
std::vector<LadderStep> Failures(const LadderResult<int>& report) {
  std::vector<LadderStep> failures;
  for (const LadderStep& step : report.steps) {
    if (!step.status.ok()) failures.push_back(step);
  }
  return failures;
}

TEST(LadderTest, FirstRungWins) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs({Status::Ok(), Status::Ok()}, &calls);
  LadderResult<int> report = RunLadder<int>(rungs);
  const StatusOr<int>& result = report.result;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0);
  EXPECT_EQ(report.winner, 0);
  EXPECT_TRUE(Failures(report).empty());
  EXPECT_EQ(calls[0], 1);
  EXPECT_EQ(calls[1], 0);
}

TEST(LadderTest, DegradableFailuresFallThrough) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {ResourceExhaustedError("regs"), BuildFailureError("ice"), Status::Ok()},
      &calls);
  LadderResult<int> report = RunLadder<int>(rungs);
  const StatusOr<int>& result = report.result;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 2);
  EXPECT_EQ(report.winner, 2);
  const std::vector<LadderStep> failures = Failures(report);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(rungs[failures[0].rung].label, "rung-0");
  EXPECT_EQ(failures[0].status.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(failures[1].status.code(), ErrorCode::kBuildFailure);
}

TEST(LadderTest, FatalErrorAbortsImmediately) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({InvalidArgumentError("bug"), Status::Ok()}, &calls);
  StatusOr<int> result = RunLadder<int>(rungs).result;
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(calls[1], 0) << "fatal errors must not degrade";
}

TEST(LadderTest, AllRungsFailReturnsLastStatus) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs = MakeRungs(
      {ResourceExhaustedError("a"), BuildFailureError("b")}, &calls);
  LadderResult<int> report = RunLadder<int>(rungs);
  EXPECT_EQ(report.result.status().code(), ErrorCode::kBuildFailure);
  EXPECT_EQ(report.winner, -1);
  EXPECT_EQ(Failures(report).size(), 2u);
}

TEST(LadderTest, TransientsAreRetriedWithinARung) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  std::vector<Rung<int>> rungs;
  rungs.push_back({"flaky", [&calls, &policy](double) {
                     return RetryAttempt<int>(
                         policy, nullptr, "flaky", [&calls]() -> StatusOr<int> {
                           ++calls;
                           if (calls < 3) return UnavailableError("hiccup");
                           return 7;
                         });
                   }});
  LadderResult<int> report = RunLadder<int>(rungs);
  const StatusOr<int>& result = report.result;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(report.winner, 0);
  EXPECT_EQ(report.retry.retries, 2);
  EXPECT_GT(report.retry.backoff_sec, 0.0);
}

TEST(LadderTest, RecordsActionsOnInjector) {
  FaultPlan plan;
  FaultInjector injector(plan);
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({ResourceExhaustedError("regs"), Status::Ok()}, &calls);
  StatusOr<int> result = RunLadder<int>(rungs, {}, &injector).result;
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].site, "degrade");
  EXPECT_EQ(injector.events()[0].action, "fell-back");
}

TEST(LadderTest, RetryAttemptRecordsOneRetryEventPerRung) {
  FaultPlan plan;
  FaultInjector injector(plan);
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  RungAttempt<int> attempt = RetryAttempt<int>(
      policy, &injector, "flaky", [&calls]() -> StatusOr<int> {
        return ++calls < 3 ? StatusOr<int>(UnavailableError("hiccup"))
                           : StatusOr<int>(7);
      });
  ASSERT_TRUE(attempt.result.ok());
  EXPECT_EQ(attempt.retry.retries, 2);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].site, "retry");
  EXPECT_EQ(injector.events()[0].key, "flaky");
  EXPECT_EQ(injector.events()[0].detail, "2 transient retries");
}

// ---- Optional policy: per-rung breakers and a modelled-seconds budget ----

/// A breaker that is open and still cooling down: its next Allow() refuses.
CircuitBreaker& Trip(CircuitBreaker& breaker) {
  breaker.set_config({/*failure_threshold=*/1, /*open_cooldown=*/8});
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  return breaker;
}

TEST(LadderPolicyTest, OpenBreakerSkipsItsRungWithoutAnAttempt) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({Status::Ok(), Status::Ok(), Status::Ok()}, &calls);
  CircuitBreaker open;
  Trip(open);
  CircuitBreaker* breakers[] = {&open, nullptr, nullptr};
  LadderPolicy policy;
  policy.breakers = breakers;
  LadderResult<int> walk = RunLadder<int>(rungs, policy);
  ASSERT_TRUE(walk.result.ok());
  EXPECT_EQ(*walk.result, 1);
  EXPECT_EQ(walk.winner, 1);
  EXPECT_EQ(calls[0], 0) << "an open breaker must not pay for the attempt";
  ASSERT_EQ(walk.steps.size(), 2u);
  EXPECT_EQ(walk.steps[0].outcome, StepOutcome::kBreakerSkipped);
  EXPECT_TRUE(walk.steps[0].breaker_open);
  EXPECT_FALSE(walk.steps[0].attempted());
  EXPECT_EQ(walk.steps[1].outcome, StepOutcome::kOk);
  EXPECT_FALSE(walk.steps[1].breaker_open);
}

TEST(LadderPolicyTest, LastRungRunsWhileItsBreakerIsOpen) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({BuildFailureError("ice"), Status::Ok()}, &calls);
  CircuitBreaker open;
  Trip(open);
  CircuitBreaker* breakers[] = {nullptr, &open};
  LadderPolicy policy;
  policy.breakers = breakers;
  LadderResult<int> walk = RunLadder<int>(rungs, policy);
  ASSERT_TRUE(walk.result.ok());
  EXPECT_EQ(walk.winner, 1);
  EXPECT_EQ(calls[1], 1) << "the last rung is attempted regardless";
  ASSERT_EQ(walk.steps.size(), 2u);
  EXPECT_EQ(walk.steps[1].outcome, StepOutcome::kOk);
  EXPECT_TRUE(walk.steps[1].breaker_open);
  EXPECT_EQ(open.state(), BreakerState::kClosed) << "success closes it";
}

TEST(LadderPolicyTest, BudgetSpentBeforeARungStopsTheWalk) {
  std::vector<int> calls;
  // Rungs 0 and 1 each spend 0.6 s of a 1.0 s budget; rung 2 never runs.
  std::vector<Rung<int>> rungs = MakeRungs(
      {DeadlineExceededError("watchdog"), DeadlineExceededError("watchdog"),
       Status::Ok()},
      &calls, {0.6, 0.6, 0.0});
  LadderPolicy policy;
  policy.budget_sec = 1.0;
  std::vector<double> remaining;
  for (Rung<int>& rung : rungs) {
    rung.attempt = [&remaining, inner = rung.attempt](double left) {
      remaining.push_back(left);
      return inner(left);
    };
  }
  LadderResult<int> walk = RunLadder<int>(rungs, policy);
  EXPECT_EQ(walk.result.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(walk.winner, -1);
  EXPECT_EQ(calls[2], 0) << "no attempt after the budget is spent";
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_DOUBLE_EQ(remaining[0], 1.0);
  EXPECT_DOUBLE_EQ(remaining[1], 0.4);
  int exhausted = 0;
  for (const LadderStep& step : walk.steps) {
    if (step.outcome == StepOutcome::kBudgetExhausted) ++exhausted;
  }
  EXPECT_EQ(exhausted, 1);
  ASSERT_EQ(walk.steps.size(), 3u);
  EXPECT_EQ(walk.steps.back().outcome, StepOutcome::kBudgetExhausted);
  EXPECT_EQ(walk.steps.back().rung, 2u);
  EXPECT_DOUBLE_EQ(walk.steps.back().end_sec, 1.2);
}

TEST(LadderPolicyTest, SuccessPastTheBudgetIsDeadlineExceeded) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({Status::Ok(), Status::Ok()}, &calls, {2.0, 0.0});
  CircuitBreaker breaker({/*failure_threshold=*/2, /*open_cooldown=*/8});
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // one failure short of tripping
  CircuitBreaker* breakers[] = {&breaker, nullptr};
  LadderPolicy policy;
  policy.breakers = breakers;
  policy.budget_sec = 1.0;
  LadderResult<int> walk = RunLadder<int>(rungs, policy);
  EXPECT_EQ(walk.result.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(walk.winner, -1);
  EXPECT_EQ(calls[1], 0) << "past the deadline is terminal, not a fall";
  ASSERT_EQ(walk.steps.size(), 1u);
  EXPECT_EQ(walk.steps[0].outcome, StepOutcome::kOkPastDeadline);
  EXPECT_DOUBLE_EQ(walk.steps[0].end_sec, 2.0);
  // The rung did succeed: the breaker's failure streak is reset, so one
  // more failure does not trip it.
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(LadderPolicyTest, WatchdogChargesItsSecondsAndFallsThrough) {
  std::vector<int> calls;
  std::vector<Rung<int>> rungs =
      MakeRungs({DeadlineExceededError("watchdog"), Status::Ok()}, &calls,
                {0.25, 0.5});
  CircuitBreaker breaker({/*failure_threshold=*/1, /*open_cooldown=*/8});
  CircuitBreaker* breakers[] = {&breaker, nullptr};
  LadderPolicy policy;
  policy.breakers = breakers;
  policy.budget_sec = 1.0;
  LadderResult<int> walk = RunLadder<int>(rungs, policy);
  ASSERT_TRUE(walk.result.ok());
  EXPECT_EQ(walk.winner, 1);
  ASSERT_EQ(walk.steps.size(), 2u);
  EXPECT_EQ(walk.steps[0].outcome, StepOutcome::kWatchdog);
  EXPECT_DOUBLE_EQ(walk.steps[0].start_sec, 0.0);
  EXPECT_DOUBLE_EQ(walk.steps[0].end_sec, 0.25);
  EXPECT_DOUBLE_EQ(walk.steps[1].start_sec, 0.25);
  EXPECT_DOUBLE_EQ(walk.steps[1].end_sec, 0.75);
  EXPECT_DOUBLE_EQ(walk.steps.back().end_sec, 0.75);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen) << "a watchdog is a failure";
}

TEST(LadderPolicyTest, StepOutcomeNamesMatchTheSpanVocabulary) {
  EXPECT_EQ(StepOutcomeName(StepOutcome::kOk), "ok");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kOkPastDeadline), "ok-past-deadline");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kWatchdog), "watchdog");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kDegradableFault), "degradable-fault");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kFatal), "fatal");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kBreakerSkipped), "breaker-skipped");
  EXPECT_EQ(StepOutcomeName(StepOutcome::kBudgetExhausted), "budget-exhausted");
}

}  // namespace
}  // namespace malisim::fault

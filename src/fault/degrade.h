// Graceful-degradation ladder: try progressively less ambitious ways of
// producing the same result. RunLadder is the one walk (DESIGN.md §8) for
// the benchmark kernel rungs, the harness figure cell and the serve job.
//
// An ok rung stops the walk, a degradable failure falls to the next rung,
// a fatal one stops. Two inputs are optional policy, which the kernel rungs
// and the harness leave out: a circuit breaker per rung, routing past the
// rung while open (never past the last rung), and a modelled-seconds
// budget, which ends the walk once spent and turns a success past it into
// DeadlineExceeded. The walk does not retry: each attempt retries inside
// itself, so a retry reuses that rung's state and fault draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/breaker.h"
#include "fault/injector.h"
#include "fault/retry.h"

namespace malisim::fault {

/// What one attempt at a rung reports back to the walk.
template <typename T>
struct RungAttempt {
  StatusOr<T> result;
  RetryStats retry;
  /// Modelled seconds charged to the budget besides retry backoff: the
  /// run time on success, the watchdog allotment on DeadlineExceeded.
  double spent_sec = 0.0;
};

/// One rung: a label for events and messages plus the attempt, which
/// receives the remaining budget in modelled seconds (0 = unbounded).
template <typename T>
struct Rung {
  std::string label;
  std::function<RungAttempt<T>(double remaining_sec)> attempt;
};

struct LadderPolicy {
  /// One breaker per rung; a null entry, or no entry, means no gate.
  std::span<CircuitBreaker* const> breakers;
  /// Modelled-seconds budget of the whole walk; 0 = unbounded.
  double budget_sec = 0.0;
};

enum class StepOutcome : std::uint8_t {
  kOk, kOkPastDeadline, kWatchdog, kDegradableFault, kFatal,
  kBreakerSkipped, kBudgetExhausted,
};

inline std::string_view StepOutcomeName(StepOutcome outcome) {
  static constexpr std::string_view kNames[] = {
      "ok",    "ok-past-deadline", "watchdog",        "degradable-fault",
      "fatal", "breaker-skipped",  "budget-exhausted"};
  return kNames[static_cast<int>(outcome)];
}

/// One rung decision, placed on the budget timeline.
struct LadderStep {
  std::size_t rung = 0;  // index into the walked rungs
  double start_sec = 0.0;
  double end_sec = 0.0;
  StepOutcome outcome = StepOutcome::kOk;
  /// The failure or the terminal deadline; Ok for ok and skipped steps.
  Status status;
  RetryStats retry;
  /// The rung's breaker refused: skipped, or the last rung forced through.
  bool breaker_open = false;

  bool attempted() const {
    return outcome != StepOutcome::kBreakerSkipped &&
           outcome != StepOutcome::kBudgetExhausted;
  }
};

template <typename T>
struct LadderResult {
  /// The winner's value, or the status that ended the walk.
  StatusOr<T> result = InternalError("ladder walked no rung");
  int winner = -1;  // rung that produced `result`; -1 when none did
  /// One step per rung decision; the last one ends at the budget spent.
  std::vector<LadderStep> steps;
  RetryStats retry;  // summed over every attempt
};

/// Walks the rungs top-down under `policy`. When `injector` is given, each
/// fall to a next rung is recorded as a `degrade`/`fell-back` event keyed
/// by the failed rung's label.
template <typename T>
LadderResult<T> RunLadder(std::span<const Rung<T>> rungs,
                          const LadderPolicy& policy = {},
                          FaultInjector* injector = nullptr) {
  MALI_CHECK_MSG(!rungs.empty(), "degradation ladder needs at least one rung");
  LadderResult<T> out;
  const double budget = policy.budget_sec;
  double consumed = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const bool last = i + 1 == rungs.size();
    LadderStep& step = out.steps.emplace_back();
    step.rung = i;
    step.start_sec = step.end_sec = consumed;
    CircuitBreaker* breaker =
        i < policy.breakers.size() ? policy.breakers[i] : nullptr;
    step.breaker_open = breaker != nullptr && !breaker->Allow();
    if (step.breaker_open && !last) {
      step.outcome = StepOutcome::kBreakerSkipped;  // no failure paid
      continue;
    }
    const double remaining = budget > 0.0 ? budget - consumed : 0.0;
    if (budget > 0.0 && remaining <= 0.0) {
      step.outcome = StepOutcome::kBudgetExhausted;
      step.status = DeadlineExceededError(
          "job budget (" + std::to_string(budget) +
          " modelled sec) exhausted before rung " + rungs[i].label);
      out.result = step.status;
      return out;
    }

    RungAttempt<T> attempt = rungs[i].attempt(remaining);
    step.retry = attempt.retry;
    out.retry.attempts += attempt.retry.attempts;
    out.retry.retries += attempt.retry.retries;
    out.retry.backoff_sec += attempt.retry.backoff_sec;
    consumed += attempt.retry.backoff_sec;
    consumed += attempt.spent_sec;
    step.end_sec = consumed;
    if (attempt.result.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      if (budget > 0.0 && consumed > budget) {
        // A deadline violation is reported as one, not excused by success.
        step.outcome = StepOutcome::kOkPastDeadline;
        step.status = DeadlineExceededError(
            "completed on rung " + rungs[i].label + " but spent " +
            std::to_string(consumed) + " of " + std::to_string(budget) +
            " modelled sec");
        out.result = step.status;
      } else {
        out.winner = static_cast<int>(i);
        out.result = std::move(attempt.result);
      }
      return out;
    }

    step.status = attempt.result.status();
    out.result = std::move(attempt.result);
    if (!IsDegradable(step.status)) {
      step.outcome = StepOutcome::kFatal;
      return out;
    }
    step.outcome = step.status.code() == ErrorCode::kDeadlineExceeded
                       ? StepOutcome::kWatchdog
                       : StepOutcome::kDegradableFault;
    if (breaker != nullptr) breaker->RecordFailure();
    if (injector != nullptr && !last) {
      injector->RecordAction("degrade", rungs[i].label, "fell-back",
                             step.status.ToString() + " -> trying '" +
                                 rungs[i + 1].label + "'");
    }
  }
  return out;
}

/// The attempt of a rung without a budget: runs `fn` under the retry
/// policy and records a `retry`/`retried` event keyed by `label` on
/// `injector` (when given) if it retried.
template <typename T, typename F>
RungAttempt<T> RetryAttempt(const RetryPolicy& policy,
                            FaultInjector* injector, const std::string& label,
                            F&& fn) {
  RetryStats retry;
  StatusOr<T> result = RetryWithBackoff(policy, std::forward<F>(fn), &retry);
  if (injector != nullptr && retry.retries > 0) {
    injector->RecordAction("retry", label, "retried",
                           std::to_string(retry.retries) + " transient retr" +
                               (retry.retries == 1 ? "y" : "ies"));
  }
  return {std::move(result), retry};
}

}  // namespace malisim::fault

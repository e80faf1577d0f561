// Per-rung circuit breakers, an optional gate of the degradation-ladder
// walk (fault::RunLadder, DESIGN.md §8 and §14):
//
//   closed --(failure_threshold consecutive degradable failures)--> open
//   open   --(open_cooldown Allow() refusals elapsed)--> half-open
//   half-open --(probe succeeds)--> closed
//   half-open --(probe fails)--> open (cooldown restarts)
//
// While a rung's breaker is open the walk routes past it, except for the
// last rung, which it attempts regardless (refusing it would lose the
// job). The cooldown counts refused Allow() calls, not wall-clock time,
// so the trip/half-open/recover cycle is testable. Half-open admits one
// probe at a time. All methods are internally locked; concurrent callers
// interleave arbitrarily, which is fine for a load-shedding heuristic.
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>

namespace malisim::fault {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

std::string_view BreakerStateName(BreakerState s);

struct BreakerConfig {
  /// Consecutive degradable failures that trip closed -> open.
  int failure_threshold = 3;
  /// Allow() refusals in open before the next caller becomes the
  /// half-open probe.
  int open_cooldown = 8;
};

/// Breaker for one ladder rung.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  explicit CircuitBreaker(const BreakerConfig& config) : config_(config) {}

  /// Reconfigures an idle breaker (before any traffic). Not synchronized
  /// against concurrent Allow/Record calls.
  void set_config(const BreakerConfig& config) { config_ = config; }

  /// May the caller attempt this rung? In open state this counts one
  /// cooldown tick and refuses; after `open_cooldown` refusals the next
  /// caller is admitted as the half-open probe.
  bool Allow();

  /// Reports the outcome of an attempt this breaker allowed.
  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;
  /// Total closed->open transitions (metrics).
  std::uint64_t trips() const;

 private:
  BreakerConfig config_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int cooldown_left_ = 0;
  bool probe_in_flight_ = false;
  std::uint64_t trips_ = 0;
};

}  // namespace malisim::fault

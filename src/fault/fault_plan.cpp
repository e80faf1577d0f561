#include "fault/fault_plan.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "common/fnv1a.h"

namespace malisim::fault {

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc:
      return "alloc";
    case FaultSite::kWrite:
      return "write";
    case FaultSite::kRead:
      return "read";
    case FaultSite::kCopy:
      return "copy";
    case FaultSite::kFill:
      return "fill";
    case FaultSite::kMap:
      return "map";
    case FaultSite::kUnmap:
      return "unmap";
    case FaultSite::kNDRange:
      return "ndrange";
    case FaultSite::kBuild:
      return "build";
    case FaultSite::kRegSqueeze:
      return "regsqueeze";
    case FaultSite::kThrottle:
      return "throttle";
    case FaultSite::kMeterDropout:
      return "meter";
  }
  return "unknown";
}

bool FaultSiteFromName(std::string_view name, FaultSite* out) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    if (FaultSiteName(site) == name) {
      *out = site;
      return true;
    }
  }
  return false;
}

bool FaultPlan::InjectionActive() const {
  for (const double r : rates) {
    if (r > 0.0) return true;
  }
  return false;
}

std::uint64_t FaultPlan::Hash() const {
  // Doubles enter by bit pattern, so 0.1 and 0.1000...1 hash differently;
  // -0.0 vs 0.0 is a distinction without a difference but cannot occur
  // from our flags.
  Fnv1a h;
  h.Int(seed);
  for (const double r : rates) h.Double(r);
  h.Int(fp64_erratum ? 1 : 0);
  h.Int(reg_budget ? 1 : 0);
  h.Double(reg_squeeze_factor);
  h.Double(throttle_time_factor);
  h.Int(static_cast<std::uint64_t>(retry.max_attempts));
  h.Double(retry.base_backoff_sec);
  h.Double(retry.multiplier);
  // Mixed only when engaged so every pre-existing plan keeps its historical
  // hash (committed BENCH baselines carry those digests).
  if (retry.max_total_backoff_sec > 0.0) {
    h.Double(retry.max_total_backoff_sec);
  }
  return h.digest();
}

Status FaultPlan::ApplySpec(std::string_view spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("fault spec entry '" + std::string(entry) +
                                  "' is not of the form site=rate");
    }
    const std::string_view name = entry.substr(0, eq);
    const std::string rate_text(entry.substr(eq + 1));
    char* end = nullptr;
    const double r = std::strtod(rate_text.c_str(), &end);
    if (end == rate_text.c_str() || *end != '\0' || r < 0.0 || r > 1.0) {
      return InvalidArgumentError("fault rate '" + rate_text + "' for '" +
                                  std::string(name) +
                                  "' is not a number in [0, 1]");
    }
    if (name == "all") {
      rates.fill(r);
      continue;
    }
    FaultSite site;
    if (!FaultSiteFromName(name, &site)) {
      return InvalidArgumentError(
          "unknown fault site '" + std::string(name) +
          "' (want alloc|write|read|copy|fill|map|unmap|ndrange|build|"
          "regsqueeze|throttle|meter|all)");
    }
    set_rate(site, r);
  }
  return Status::Ok();
}

StatusOr<FaultPlan> FaultPlan::FromOptions(const FaultOptions& options) {
  if (options.rate < 0.0 || options.rate > 1.0) {
    return InvalidArgumentError("--fault-rate must be in [0, 1]");
  }
  if (options.watchdog_sec < 0.0) {
    return InvalidArgumentError("--watchdog must be >= 0");
  }
  FaultPlan plan;
  plan.seed = options.seed;
  plan.rates.fill(options.rate);
  MALI_RETURN_IF_ERROR(plan.ApplySpec(options.spec));
  return plan;
}

StatusOr<bool> ParseFaultFlag(std::string_view arg, FaultOptions* options) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string_view flag = arg.substr(0, eq);
  const std::string_view value = arg.substr(eq + 1);
  if (flag == "--fault-spec") {
    options->spec = std::string(value);
    return true;
  }
  double* number = flag == "--fault-rate" ? &options->rate
                   : flag == "--watchdog" ? &options->watchdog_sec
                                          : nullptr;
  if (number == nullptr && flag != "--fault-seed") return false;
  const char* last = value.data() + value.size();
  const std::from_chars_result parsed =
      number != nullptr ? std::from_chars(value.data(), last, *number)
                        : std::from_chars(value.data(), last, options->seed);
  if (value.empty() || parsed.ec != std::errc() || parsed.ptr != last ||
      (number != nullptr && !std::isfinite(*number))) {
    return InvalidArgumentError(
        std::string(flag) + " value '" + std::string(value) + "' is not " +
        (number != nullptr ? "a number" : "an unsigned integer"));
  }
  return true;
}

}  // namespace malisim::fault

#include "sim/tuner.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/json.h"
#include "common/log.h"
#include "common/prng.h"
#include "common/thread_pool.h"

namespace malisim::sim {

std::string_view ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kTime:
      return "time";
    case Objective::kEnergy:
      return "energy";
    case Objective::kEdp:
      return "edp";
  }
  return "?";
}

bool ParseObjective(std::string_view name, Objective* out) {
  for (const Objective o : kAllObjectives) {
    if (name == ObjectiveName(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

std::int64_t TuningConfig::Get(std::string_view name,
                               std::int64_t fallback) const {
  for (const auto& [axis, value] : values) {
    if (axis == name) return value;
  }
  return fallback;
}

bool TuningConfig::Has(std::string_view name) const {
  for (const auto& [axis, value] : values) {
    if (axis == name) return true;
  }
  return false;
}

void TuningConfig::Set(std::string_view name, std::int64_t value) {
  for (auto& [axis, existing] : values) {
    if (axis == name) {
      existing = value;
      return;
    }
  }
  values.emplace_back(std::string(name), value);
}

std::string TuningConfig::CanonicalKey() const {
  std::string out;
  for (const auto& [axis, value] : values) {
    if (!out.empty()) out += ',';
    out += axis;
    out += '=';
    out += std::to_string(value);
  }
  return out;
}

std::uint64_t TuningSpace::Size() const {
  if (axes.empty()) return 0;
  std::uint64_t size = 1;
  for (const TuningAxis& axis : axes) {
    if (axis.values.empty()) return 0;
    size *= axis.values.size();
  }
  return size;
}

TuningConfig TuningSpace::At(std::uint64_t index) const {
  // Mixed-radix decode with axis 0 as the most significant digit, so
  // exhaustive enumeration sweeps the last axis fastest — the order a
  // nest of for-loops over the axes would produce.
  TuningConfig config;
  config.values.resize(axes.size());
  for (std::size_t i = axes.size(); i-- > 0;) {
    const TuningAxis& axis = axes[i];
    const std::uint64_t radix = axis.values.size();
    config.values[i] = {axis.name,
                        axis.values[static_cast<std::size_t>(index % radix)]};
    index /= radix;
  }
  return config;
}

bool TuningSpace::IsValid(const TuningConfig& config) const {
  return valid == nullptr || valid(config);
}

std::string TuningSpace::Signature() const {
  std::string out;
  for (const TuningAxis& axis : axes) {
    if (!out.empty()) out += ',';
    out += axis.name;
    out += ':';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += '|';
      out += std::to_string(axis.values[i]);
    }
  }
  return out;
}

double ObjectiveScore(Objective objective, const TuningMeasurement& m) {
  switch (objective) {
    case Objective::kTime:
      return m.seconds;
    case Objective::kEnergy:
      return m.energy_j;
    case Objective::kEdp:
      return m.energy_j * m.seconds;
  }
  return m.seconds;
}

namespace {

/// Shared search bookkeeping. Mutated only in replay order (the pipeline's
/// calling-thread stage), which is what makes the trajectory — and every
/// tie-break — independent of the host thread count.
struct SearchState {
  const Objective objective;
  /// CanonicalKey -> score of a successful eval, or nullopt for a skipped
  /// candidate. Doubles as the dedupe table: a config is evaluated once.
  std::map<std::string, std::optional<double>> memo;
  TunerResult result;
  bool have_best = false;

  explicit SearchState(Objective obj) : objective(obj) {}

  double ScoreOrInf(const std::string& key) const {
    const auto it = memo.find(key);
    if (it == memo.end() || !it->second.has_value()) {
      return std::numeric_limits<double>::infinity();
    }
    return *it->second;
  }

  void Record(const TuningConfig& config,
              const StatusOr<TuningMeasurement>& measured) {
    const std::string key = config.CanonicalKey();
    TuningTrajectoryPoint point;
    point.config_key = key;
    if (measured.ok()) {
      const double score = ObjectiveScore(objective, *measured);
      point.ok = true;
      point.score = score;
      memo[key] = score;
      ++result.evaluated;
      // Strict improvement only: on a tie the first-evaluated config wins,
      // which is deterministic because Record runs in replay order.
      if (!have_best || score < result.best_score) {
        have_best = true;
        result.best = config;
        result.best_measurement = *measured;
        result.best_score = score;
      }
    } else {
      memo[key] = std::nullopt;
      ++result.skipped;
    }
    result.trajectory.push_back(std::move(point));
  }
};

/// Evaluates every not-yet-memoized config of `batch` (deduped, batch
/// order preserved) across the pool, recording results in replay order.
void EvaluateBatch(ThreadPool* pool, int window,
                   const std::vector<TuningConfig>& batch,
                   const TuningEvalFn& eval, SearchState* state) {
  std::vector<const TuningConfig*> todo;
  {
    std::map<std::string, bool> in_batch;
    for (const TuningConfig& config : batch) {
      const std::string key = config.CanonicalKey();
      if (state->memo.count(key) != 0 || in_batch.count(key) != 0) continue;
      in_batch[key] = true;
      todo.push_back(&config);
    }
  }
  if (todo.empty()) return;
  std::vector<std::optional<StatusOr<TuningMeasurement>>> results(todo.size());
  // Task bodies never fail the pipeline: a failed eval is a skipped
  // candidate, recorded as such during replay.
  const Status status = RunOrderedPipeline(
      pool, todo.size(), static_cast<std::size_t>(std::max(1, window)),
      [&](std::size_t i) {
        results[i] = eval(*todo[i]);
        return Status::Ok();
      },
      [&](std::size_t i) {
        state->Record(*todo[i], *results[i]);
        return Status::Ok();
      });
  MALI_CHECK_MSG(status.ok(), "tuner evaluation pipeline failed");
}

std::size_t AxisValueIndex(const TuningAxis& axis, std::int64_t value) {
  for (std::size_t i = 0; i < axis.values.size(); ++i) {
    if (axis.values[i] == value) return i;
  }
  return 0;
}

/// All single-axis ±1-step moves from `config`, validity-filtered, in a
/// deterministic order (axis order; step down before step up).
std::vector<TuningConfig> Neighbors(const TuningSpace& space,
                                    const TuningConfig& config) {
  std::vector<TuningConfig> out;
  for (std::size_t a = 0; a < space.axes.size(); ++a) {
    const TuningAxis& axis = space.axes[a];
    const std::size_t at = AxisValueIndex(axis, config.values[a].second);
    for (const int step : {-1, +1}) {
      const std::int64_t next = static_cast<std::int64_t>(at) + step;
      if (next < 0 || next >= static_cast<std::int64_t>(axis.values.size())) {
        continue;
      }
      TuningConfig neighbor = config;
      neighbor.values[a].second = axis.values[static_cast<std::size_t>(next)];
      if (space.IsValid(neighbor)) out.push_back(std::move(neighbor));
    }
  }
  return out;
}

/// A valid config drawn from `rng`, falling back to a linear scan from a
/// random offset when rejection sampling keeps missing (sparse validity).
std::optional<TuningConfig> SampleValid(const TuningSpace& space,
                                        std::uint64_t size, Xoshiro256& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    TuningConfig config = space.At(rng.NextBounded(size));
    if (space.IsValid(config)) return config;
  }
  const std::uint64_t start = rng.NextBounded(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    TuningConfig config = space.At((start + i) % size);
    if (space.IsValid(config)) return config;
  }
  return std::nullopt;
}

}  // namespace

StatusOr<TunerResult> Tuner::Search(const TuningSpace& space,
                                    const TuningEvalFn& eval) const {
  const std::uint64_t size = space.Size();
  if (size == 0) {
    return InvalidArgumentError("tuning space is empty");
  }

  std::optional<ThreadPool> pool;
  if (options_.threads > 1) pool.emplace(options_.threads);
  ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;

  SearchState state(options_.objective);
  state.result.space_size = size;

  if (size <= options_.exhaustive_limit) {
    state.result.exhaustive = true;
    std::vector<TuningConfig> all;
    all.reserve(static_cast<std::size_t>(size));
    for (std::uint64_t i = 0; i < size; ++i) {
      TuningConfig config = space.At(i);
      if (space.IsValid(config)) all.push_back(std::move(config));
    }
    EvaluateBatch(pool_ptr, options_.replay_window, all, eval, &state);
  } else {
    // Seeded hill-climb with restarts. The rng stream feeds only the
    // restart points; every other decision (neighbor order, tie-breaks,
    // memo hits) is a pure function of the space, so the trajectory is a
    // function of (seed, space, objective) alone.
    Xoshiro256 rng(options_.seed);
    for (int restart = 0; restart < std::max(1, options_.restarts);
         ++restart) {
      std::optional<TuningConfig> start = SampleValid(space, size, rng);
      if (!start.has_value()) break;  // no valid point exists
      TuningConfig current = *std::move(start);
      EvaluateBatch(pool_ptr, options_.replay_window, {current}, eval,
                    &state);
      for (int step = 0; step < std::max(1, options_.max_steps); ++step) {
        const std::vector<TuningConfig> neighbors = Neighbors(space, current);
        if (neighbors.empty()) break;
        EvaluateBatch(pool_ptr, options_.replay_window, neighbors, eval,
                      &state);
        const double current_score = state.ScoreOrInf(current.CanonicalKey());
        const TuningConfig* best_neighbor = nullptr;
        double best_neighbor_score =
            std::numeric_limits<double>::infinity();
        for (const TuningConfig& neighbor : neighbors) {
          const double score = state.ScoreOrInf(neighbor.CanonicalKey());
          // Strict < keeps the earliest neighbor on ties — deterministic
          // because the neighbor order is.
          if (score < best_neighbor_score) {
            best_neighbor_score = score;
            best_neighbor = &neighbor;
          }
        }
        if (best_neighbor == nullptr ||
            best_neighbor_score >= current_score) {
          break;  // local minimum (or an all-failed neighborhood)
        }
        current = *best_neighbor;
      }
    }
  }

  if (!state.have_best) {
    return NotFoundError(
        "tuning found no viable configuration (" +
        std::to_string(state.result.skipped) + " candidate(s) skipped)");
  }
  return std::move(state.result);
}

std::string DeviceCapsKey(const DeviceCaps& caps) {
  // throughput_hint is deliberately absent: it seeds the hetero split's
  // self-tuning but never feeds a modelled time, so it cannot change a
  // tuning winner.
  std::string out = caps.name;
  out += '|';
  out += BackendName(caps.kind);
  out += "|cu=" + std::to_string(caps.compute_units);
  out += "|wg=" + std::to_string(caps.max_work_group_size);
  out += std::string("|fp64=") + (caps.fp64 ? "1" : "0");
  out += "|clock=" + JsonNumber(caps.clock_hz);
  out += std::string("|unified=") + (caps.unified_memory ? "1" : "0");
  return out;
}

std::string TuningCacheKey(std::string_view kernel_fingerprint,
                           const DeviceCaps& caps, Objective objective,
                           const TuningSpace& space) {
  std::string text(kernel_fingerprint);
  text += '\n';
  text += DeviceCapsKey(caps);
  text += '\n';
  text += ObjectiveName(objective);
  text += '\n';
  text += space.Signature();
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(text)));
  return std::string(buf);
}

bool TuningCache::Lookup(const std::string& key,
                         TuningCacheEntry* out) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void TuningCache::Insert(const std::string& key, TuningCacheEntry entry) {
  entries_[key] = std::move(entry);
}

std::string TuningCache::Serialize() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("malisim-tune-cache-v1");
  w.Key("entries");
  w.BeginObject();
  for (const auto& [key, entry] : entries_) {  // std::map: sorted, stable
    w.Key(key);
    w.BeginObject();
    w.Key("config");
    w.String(entry.config_key);
    w.Key("objective");
    w.String(entry.objective);
    w.Key("score");
    w.Number(entry.score);
    w.Key("seconds");
    w.Number(entry.seconds);
    w.Key("energy_j");
    w.Number(entry.energy_j);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str() + "\n";
}

StatusOr<TuningCache> TuningCache::Deserialize(std::string_view text) {
  StatusOr<JsonValue> root = ParseJson(text);
  if (!root.ok()) return root.status();
  if (!root->is_object()) {
    return InvalidArgumentError("tuning cache: root is not an object");
  }
  if (root->StringOr("schema", "") != "malisim-tune-cache-v1") {
    return InvalidArgumentError("tuning cache: unknown schema '" +
                                root->StringOr("schema", "<missing>") + "'");
  }
  const JsonValue* entries = root->Find("entries");
  if (entries == nullptr || !entries->is_object()) {
    return InvalidArgumentError("tuning cache: missing entries object");
  }
  TuningCache cache;
  for (const auto& [key, value] : entries->members) {
    if (!value.is_object()) {
      return InvalidArgumentError("tuning cache: entry '" + key +
                                  "' is not an object");
    }
    const JsonValue* config = value.Find("config");
    const JsonValue* objective = value.Find("objective");
    if (config == nullptr || !config->is_string() || objective == nullptr ||
        !objective->is_string()) {
      return InvalidArgumentError("tuning cache: entry '" + key +
                                  "' lacks config/objective strings");
    }
    TuningCacheEntry entry;
    entry.config_key = config->string_value;
    entry.objective = objective->string_value;
    entry.score = value.NumberOr("score", 0.0);
    entry.seconds = value.NumberOr("seconds", 0.0);
    entry.energy_j = value.NumberOr("energy_j", 0.0);
    cache.entries_[key] = std::move(entry);
  }
  return cache;
}

TuningCache TuningCache::LoadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // First run: no cache yet. Not a warning — the save after the search
    // creates it.
    return TuningCache();
  }
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<TuningCache> cache = Deserialize(text.str());
  if (!cache.ok()) {
    MALI_LOG_WARN("ignoring corrupt tuning cache %s: %s", path.c_str(),
                  cache.status().ToString().c_str());
    return TuningCache();
  }
  return *std::move(cache);
}

namespace {

/// Best-effort inter-process writer lock: a `path`.lock file created with
/// O_CREAT|O_EXCL. Returns true when the lock was acquired (caller must
/// unlink it). A lock file older than kStaleLockSec is presumed abandoned
/// by a crashed writer and stolen. Never blocks indefinitely: after the
/// retry budget the caller proceeds without the lock — the temp+rename
/// protocol keeps the file uncorrupted either way, the lock only narrows
/// the window where two writers race on last-writer-wins.
constexpr double kStaleLockSec = 60.0;

bool AcquireCacheLock(const std::string& lock_path) {
#ifdef _WIN32
  (void)lock_path;
  return false;
#else
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd =
        ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    if (errno != EEXIST) return false;  // unwritable dir: skip locking
    struct stat st {};
    if (::stat(lock_path.c_str(), &st) == 0) {
      const auto now = std::chrono::system_clock::now();
      const double age_sec =
          std::chrono::duration<double>(
              now.time_since_epoch())
              .count() -
          static_cast<double>(st.st_mtime);
      if (age_sec > kStaleLockSec) {
        MALI_LOG_WARN("stealing stale tuning-cache lock %s (age %.0fs)",
                      lock_path.c_str(), age_sec);
        ::unlink(lock_path.c_str());
        continue;  // retry the O_EXCL create
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
#endif
}

void ReleaseCacheLock(const std::string& lock_path) {
#ifndef _WIN32
  ::unlink(lock_path.c_str());
#endif
}

}  // namespace

Status TuningCache::SaveFile(const std::string& path) const {
  const std::string lock_path = path + ".lock";
  const bool locked = AcquireCacheLock(lock_path);
  if (!locked) {
    MALI_LOG_WARN(
        "writing tuning cache %s without the writer lock (held or "
        "unavailable); replace is still atomic",
        path.c_str());
  }

  // Merge-on-save: keep on-disk winners for keys this process never
  // touched, so concurrent writers with disjoint workloads lose nothing.
  TuningCache merged = LoadFileOrEmpty(path);
  for (const auto& [key, entry] : entries_) {
    merged.entries_[key] = entry;
  }

  // Temp file in the same directory so rename(2) stays within one
  // filesystem and is atomic.
#ifndef _WIN32
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
  const std::string tmp_path = path + ".tmp";
#endif
  Status result = Status::Ok();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      result = InternalError("cannot open tuning cache temp '" + tmp_path +
                             "' for writing");
    } else {
      out << merged.Serialize();
      out.flush();
      if (!out) {
        result = InternalError("short write to tuning cache temp '" +
                               tmp_path + "'");
      }
    }
  }
  if (result.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    result = InternalError("cannot rename '" + tmp_path + "' over '" + path +
                           "'");
  }
  if (!result.ok()) std::remove(tmp_path.c_str());
  if (locked) ReleaseCacheLock(lock_path);
  return result;
}

StatusOr<TuningConfig> ConfigFromKey(const TuningSpace& space,
                                     std::string_view config_key) {
  // Start from every axis at its first value so axes the key omits (an
  // older space revision) keep a defined, in-space assignment.
  TuningConfig config;
  for (const TuningAxis& axis : space.axes) {
    if (axis.values.empty()) {
      return InvalidArgumentError("axis '" + axis.name + "' is empty");
    }
    config.values.emplace_back(axis.name, axis.values.front());
  }
  std::string_view rest = config_key;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("malformed config key token '" +
                                  std::string(pair) + "'");
    }
    const std::string_view name = pair.substr(0, eq);
    const std::string_view digits = pair.substr(eq + 1);
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc() || ptr != digits.data() + digits.size()) {
      return InvalidArgumentError("malformed config value in '" +
                                  std::string(pair) + "'");
    }
    bool found = false;
    for (std::size_t a = 0; a < space.axes.size(); ++a) {
      if (space.axes[a].name != name) continue;
      if (std::find(space.axes[a].values.begin(), space.axes[a].values.end(),
                    value) == space.axes[a].values.end()) {
        return InvalidArgumentError("config value " + std::string(pair) +
                                    " is outside the tuning space");
      }
      config.values[a].second = value;
      found = true;
      break;
    }
    if (!found) {
      return InvalidArgumentError("config axis '" + std::string(name) +
                                  "' is not in the tuning space");
    }
  }
  if (!space.IsValid(config)) {
    return InvalidArgumentError("cached config '" + std::string(config_key) +
                                "' violates the space constraint");
  }
  return config;
}

}  // namespace malisim::sim

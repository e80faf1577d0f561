// sim::Tuner — the autotuning search engine over the paper's §III
// optimization space.
//
// The paper hand-picks one operating point per benchmark (work-group size,
// vector width, unroll factor, buffer strategy); the tuner searches that
// space automatically. A benchmark (or any other client) declares a
// TuningSpace — named integer axes plus an optional validity predicate —
// and an evaluation callback that runs one candidate configuration and
// reports its modelled time and energy. The engine picks the winner under a
// selectable objective (time, energy, or energy-delay product):
//
//  * Exhaustive search when the space is small (every valid point is
//    evaluated; the winner provably matches-or-beats any hand-picked
//    configuration in the space).
//  * A seeded, deterministic hill-climb with restarts for large spaces:
//    random restart points from a xoshiro256++ stream, coordinate-step
//    neighborhoods, batch evaluation of each neighborhood.
//
// Candidate evaluations fan out over the PR 1 thread pool through
// RunOrderedPipeline: bodies run concurrently, but every search-state
// update (best-so-far, memo table, trajectory) happens in strictly
// increasing candidate order on the calling thread. Together with
// deterministic tie-breaking (first enumerated wins) this makes the full
// search trajectory — not just the winner — bit-identical for any host
// thread count, the same contract the device engines keep.
//
// Failed evaluations (build failures, injected faults, resource
// exhaustion) are skipped-and-counted, never winners: a search in which no
// candidate succeeds returns NotFound rather than a poisoned result.
//
// TuningCache persists winners as JSON ("malisim-tune-cache-v1"),
// content-addressed by a caller-supplied key derived from the kernel
// fingerprint, the DeviceCaps of the target backend, the objective and the
// space signature (TuningCacheKey). Corrupt or truncated cache files are
// rejected gracefully — a warning through the MALISIM_LOG_LEVEL logger and
// an empty cache, never an abort.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "common/status.h"
#include "sim/device.h"

namespace malisim::sim {

/// What the search minimizes. kEdp is the energy-delay product E*t, the
/// battery-versus-deadline compromise objective.
enum class Objective : std::uint8_t { kTime, kEnergy, kEdp };

inline constexpr Objective kAllObjectives[] = {Objective::kTime,
                                               Objective::kEnergy,
                                               Objective::kEdp};

/// Canonical objective name: "time", "energy", "edp".
std::string_view ObjectiveName(Objective objective);

/// Inverse of ObjectiveName. False on unknown names.
bool ParseObjective(std::string_view name, Objective* out);

/// One named integer knob and its ordered candidate values. Non-integer
/// knobs are encoded: booleans as {0,1}, the hetero GPU share as permille.
struct TuningAxis {
  std::string name;
  std::vector<std::int64_t> values;
};

/// One point of a TuningSpace: an axis-ordered (name, value) assignment.
struct TuningConfig {
  std::vector<std::pair<std::string, std::int64_t>> values;

  /// Value of axis `name`, or `fallback` when the config has no such axis
  /// (benchmarks use fallbacks so optional axes degrade to the paper
  /// defaults).
  std::int64_t Get(std::string_view name, std::int64_t fallback) const;
  bool Has(std::string_view name) const;
  void Set(std::string_view name, std::int64_t value);

  /// Stable textual form "a=1,b=128" in axis order — the identity used for
  /// memoization, tie-breaking, trajectories and the cache format.
  std::string CanonicalKey() const;

  bool operator==(const TuningConfig& other) const {
    return values == other.values;
  }
};

/// A declarative search space: axes plus an optional validity predicate
/// for cross-axis constraints (e.g. wg_x*wg_y*wg_z <= max work-group size).
struct TuningSpace {
  std::vector<TuningAxis> axes;
  /// Nullptr = every combination is valid.
  std::function<bool(const TuningConfig&)> valid;

  /// Product of axis sizes (valid and invalid points alike); 0 for an
  /// empty axis list or any empty axis.
  std::uint64_t Size() const;
  /// Mixed-radix decode of `index` in [0, Size()): axis 0 varies slowest.
  TuningConfig At(std::uint64_t index) const;
  bool IsValid(const TuningConfig& config) const;
  /// "axis:v1|v2,axis2:v1" — the space's identity for cache keys.
  std::string Signature() const;
};

/// What one candidate evaluation reports back: modelled seconds of the
/// measured region and modelled energy-to-solution over it.
struct TuningMeasurement {
  double seconds = 0.0;
  double energy_j = 0.0;
};

/// The scalar the search minimizes for `objective`.
double ObjectiveScore(Objective objective, const TuningMeasurement& m);

/// Evaluates one candidate. Called concurrently from pool workers when the
/// tuner runs threaded, so the callback must be self-contained (fresh
/// devices per call) and deterministic — same config, same measurement.
/// A non-OK status marks the candidate skipped (degraded/faulted), not
/// fatal to the search.
using TuningEvalFn =
    std::function<StatusOr<TuningMeasurement>(const TuningConfig&)>;

struct TunerOptions {
  Objective objective = Objective::kTime;
  /// Seed for the hill-climb restart stream. Exhaustive search ignores it.
  std::uint64_t seed = 42;
  /// Host threads for candidate fan-out; 1 = inline evaluation.
  int threads = 1;
  /// RunOrderedPipeline lookahead beyond the replay cursor.
  int replay_window = 16;
  /// Spaces with Size() <= this are searched exhaustively.
  std::uint64_t exhaustive_limit = 512;
  /// Hill-climb restarts and per-restart step budget (large spaces only).
  int restarts = 4;
  int max_steps = 24;
};

/// One replay-ordered evaluation record. `ok == false` is a skipped
/// candidate (its score is meaningless).
struct TuningTrajectoryPoint {
  std::string config_key;
  double score = 0.0;
  bool ok = false;
};

struct TunerResult {
  TuningConfig best;
  TuningMeasurement best_measurement;
  double best_score = 0.0;
  /// Search accounting.
  std::uint64_t space_size = 0;
  std::uint64_t evaluated = 0;   // unique candidates that measured OK
  std::uint64_t skipped = 0;     // unique candidates whose eval failed
  bool exhaustive = false;
  /// True when the winner came straight from a TuningCache and no
  /// candidate was evaluated.
  bool from_cache = false;
  /// Every unique evaluation in replay order — the deterministic search
  /// trajectory the cross-thread-count tests compare bit-for-bit.
  std::vector<TuningTrajectoryPoint> trajectory;
};

class Tuner {
 public:
  explicit Tuner(const TunerOptions& options) : options_(options) {}

  /// Searches `space`, minimizing the objective over `eval` measurements.
  /// InvalidArgument for an empty space; NotFound when no candidate
  /// evaluates successfully (every point skipped or invalid).
  StatusOr<TunerResult> Search(const TuningSpace& space,
                               const TuningEvalFn& eval) const;

  const TunerOptions& options() const { return options_; }

 private:
  TunerOptions options_;
};

/// Canonical capability string entering the cache key: a configuration
/// change on the modelled device (clock, core count, work-group limit)
/// invalidates cached winners.
std::string DeviceCapsKey(const DeviceCaps& caps);

/// Content address of one tuning problem: hex FNV-1a over the kernel
/// fingerprint, the device capability string, the objective and the space
/// signature.
std::string TuningCacheKey(std::string_view kernel_fingerprint,
                           const DeviceCaps& caps, Objective objective,
                           const TuningSpace& space);

/// One persisted winner.
struct TuningCacheEntry {
  std::string config_key;       // winner's CanonicalKey()
  std::string objective;        // ObjectiveName at insert time
  double score = 0.0;
  double seconds = 0.0;
  double energy_j = 0.0;
};

/// Persistent winner cache. Serialization is deterministic (entries sorted
/// by key) so two identical tuning runs write byte-identical files — CI
/// `cmp`s them.
class TuningCache {
 public:
  bool Lookup(const std::string& key, TuningCacheEntry* out) const;
  void Insert(const std::string& key, TuningCacheEntry entry);
  std::size_t size() const { return entries_.size(); }

  /// "malisim-tune-cache-v1" JSON document.
  std::string Serialize() const;
  /// Strict parse of Serialize() output; InvalidArgument on anything else.
  static StatusOr<TuningCache> Deserialize(std::string_view text);

  /// Loads `path`. A missing file is an empty cache (first run); a corrupt
  /// or truncated file is rejected gracefully — MALI_LOG_WARN and an empty
  /// cache, with Ok status either way.
  static TuningCache LoadFileOrEmpty(const std::string& path);

  /// Crash- and concurrency-safe save. The document is written to a
  /// sibling temp file and rename(2)d over `path`, so readers only ever
  /// see a complete document (never a torn write). Writers serialize on a
  /// best-effort `path`.lock file; a lock older than ~60 s is presumed
  /// left by a crashed writer and stolen, and a writer that cannot get the
  /// lock at all still performs the atomic replace (last writer wins,
  /// never corruption). On-disk entries absent from this cache are merged
  /// into the written document so concurrent writers with disjoint keys
  /// lose nothing; this cache's own entries take precedence.
  Status SaveFile(const std::string& path) const;

  const std::map<std::string, TuningCacheEntry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, TuningCacheEntry> entries_;
};

/// Reconstructs the TuningConfig a cache entry's config_key denotes,
/// resolving axis values against `space` (axes absent from the key keep
/// their first value). InvalidArgument when the key names an axis value
/// outside the space.
StatusOr<TuningConfig> ConfigFromKey(const TuningSpace& space,
                                     std::string_view config_key);

}  // namespace malisim::sim

// Metrics aggregation on top of the Recorder: typed gauges,
// monotonic counters and fixed-bucket log-scale histograms, summarized into
// a deterministic snapshot that the bench-report layer serializes into
// BENCH_*.json records.
//
// Determinism contract: a snapshot built from two recorders whose record
// streams are equal as *multisets* (the parallel engine's guarantee — only
// ORDER varies across --threads) is byte-identical when serialized. This
// holds because:
//  * histogram bucket counts and exact min/max are order-independent,
//  * every floating-point SUM is computed after canonically sorting the
//    observed values (equal values are interchangeable), via Kahan
//    accumulation, and
//  * all emission iterates name-sorted maps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/recorder.h"
#include "power/power_model.h"

namespace malisim::obs {

/// Fixed-layout log-scale histogram. Inner bucket i (0-based) spans
/// [min_edge * 10^(i/bpd), min_edge * 10^((i+1)/bpd)) — half-open, so a
/// value exactly on an edge belongs to the bucket ABOVE it. Two outer
/// buckets catch the rest: the underflow bucket takes every value below
/// min_edge (including zero and negatives; modelled times and watts are
/// never negative, but the histogram must not misfile them), the overflow
/// bucket takes values at or above the top edge. The layout is fixed at
/// construction so histograms from different runs are always comparable
/// bucket-by-bucket.
class LogHistogram {
 public:
  struct Layout {
    double min_edge = 1e-9;      // 1 ns / 1 nW resolution floor
    int decades = 15;            // covers up to 10^6 with headroom
    int buckets_per_decade = 8;  // ~33% relative bucket width

    bool operator==(const Layout& other) const {
      return min_edge == other.min_edge && decades == other.decades &&
             buckets_per_decade == other.buckets_per_decade;
    }
  };

  LogHistogram() : LogHistogram(Layout()) {}
  explicit LogHistogram(const Layout& layout);

  void Add(double value);
  /// Adds every bucket/extreme of `other`; layouts must match.
  void Merge(const LogHistogram& other);

  const Layout& layout() const { return layout_; }
  std::uint64_t count() const { return count_; }
  /// Exact observed extremes (not bucket edges); 0 when empty.
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Sum in insertion order (Kahan-compensated). Deterministic when the
  /// caller feeds values in canonical order — MetricsAggregator sorts.
  double sum() const { return sum_.value(); }
  double mean() const;

  /// Percentile estimate from the bucket counts (nearest-rank). Returns
  /// the upper edge of the bucket holding the rank, clamped to the exact
  /// [min, max] observed, so p100 == max() and estimates never exceed the
  /// true extreme. 0 when empty. `p` in [0, 100].
  double Percentile(double p) const;

  /// Bucket introspection. Index 0 = underflow, 1..inner = log buckets,
  /// inner+1 = overflow.
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  std::uint64_t bucket_count(int index) const { return buckets_[static_cast<std::size_t>(index)]; }
  /// Which bucket `value` files into.
  int BucketIndex(double value) const;
  /// Inclusive lower edge of a bucket (-inf for underflow).
  double LowerEdge(int index) const;
  /// Exclusive upper edge of a bucket (+inf for overflow).
  double UpperEdge(int index) const;

 private:
  Layout layout_;
  std::vector<double> edges_;          // inner edges, size inner+1
  std::vector<std::uint64_t> buckets_; // underflow + inner + overflow
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  KahanSum sum_;
};

/// Finalized histogram statistics as emitted into BENCH records.
struct HistogramStat {
  LogHistogram::Layout layout;
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Sparse non-empty buckets as (index, count), index-ascending.
  std::vector<std::pair<int, std::uint64_t>> buckets;
};

/// Name-keyed snapshot of every aggregated metric. Maps are ordered so
/// iteration (and therefore serialization) is deterministic.
struct MetricsSnapshot {
  std::map<std::string, double> gauges;
  std::map<std::string, double> counters;
  std::map<std::string, HistogramStat> histograms;
};

/// Collects gauges, counters and histogram observations, then finalizes
/// them deterministically. Not thread-safe: aggregation happens after the
/// run, on one thread, from a sealed recorder.
class MetricsAggregator {
 public:
  MetricsAggregator() : MetricsAggregator(LogHistogram::Layout()) {}
  explicit MetricsAggregator(const LogHistogram::Layout& layout);

  /// Last-write-wins named value.
  void SetGauge(const std::string& name, double value);
  /// Monotonic accumulation (counts; additions are integral in practice).
  void AddCounter(const std::string& name, double delta = 1.0);
  /// Appends one observation to the named series.
  void Observe(const std::string& name, double value);

  /// Folds a pre-built histogram into the named series. Used by the serve
  /// engine, whose workers accumulate host-latency histograms locally and
  /// merge them after the drain — bucket merges are order-independent, so
  /// the snapshot stays deterministic for deterministic inputs. The
  /// histogram's layout must match the aggregator's. A name used with
  /// MergeHistogram must not also be used with Observe.
  void MergeHistogram(const std::string& name, const LogHistogram& hist);

  /// Ingests one recorder's streams under `prefix` (e.g. "fp32"):
  ///  * per-kernel modelled time, stall time and per-launch histograms,
  ///  * queue-command latency histograms per command kind,
  ///  * per-rail power and energy per measurement segment,
  ///  * fault/resilience event counters by (site, action).
  /// Record order does not matter: everything is canonically sorted before
  /// any floating-point accumulation.
  void IngestRecorder(const Recorder& recorder,
                      const power::PowerModel& model,
                      const std::string& prefix);

  /// Sorts every observation series and computes histogram statistics.
  MetricsSnapshot Finalize() const;

 private:
  LogHistogram::Layout layout_;
  std::map<std::string, double> gauges_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, LogHistogram> merged_;
};

/// Compact per-kernel latency summary (the malisim-prof --summary view):
/// one row per (device, kernel) with launch count and p50/p90/p99/max of
/// the modelled per-launch time, plus per-rail energy totals when power
/// segments were recorded.
std::string SummaryReport(const Recorder& recorder,
                          const power::PowerModel& model);

}  // namespace malisim::obs

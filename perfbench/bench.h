// Shared plumbing of the malisim benchmark program: run arguments, the
// result record printed as the last stdout line, timing statistics, and an
// in-memory span log that the traced runs use to attribute host time to
// the library's layers from outside (spans wrap calls into each module's
// public functions; nothing inside src/ is instrumented by the benchmark).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Repository root: committed golden CSVs are read from here.
  std::string root = ".";
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_out;
};

/// One benchmark run's outcome. `Check` records an output check; any
/// failed check makes the whole run incorrect.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(bool ok, const std::string& what);
  /// A human-readable report line (printed before the JSON line).
  void Note(const std::string& line);

  void Attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool HasMetric(const std::string& name) const;
  /// Takes `other`'s checks and notes, and those of its metrics this
  /// result does not have yet.
  void Absorb(const Result& other);

  /// Prints the notes, then the one-line JSON result.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

double Median(std::vector<double> values);

/// The highest nearest-rank percentile that still has at least ten samples
/// above it, per the benchmark's reporting rule. `percentile` is 0 when
/// fewer than eleven samples exist (no tail percentile is supported).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
Tail TailPercentile(std::vector<double> values);

/// "name median=... pNN=... n=..." summary line for a timing series.
std::string Summarize(const std::string& name, const std::vector<double>& values,
                      const std::string& unit);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

struct Repetitions {
  std::size_t warmups = 0;            // untimed repetitions run first
  std::vector<double> seconds;        // each timed repetition's wall time
  std::vector<double> setup_seconds;  // each timed repetition's set-up sample
  /// Peak RSS after the first repetition (warm-up or timed): the workload's
  /// own footprint, before allocator growth from later repetitions can add
  /// to it.
  double peak_rss_mb = 0.0;
};

/// Runs `rep` repeatedly within a wall-clock budget, after calling `setup`
/// (which returns one set-up time sample, in seconds) before each
/// repetition, so set-up samples spread over the whole run. The first
/// `warmups` repetitions are untimed, so that process-wide caches fill and
/// lazy set-up finishes before timing; they count against the budget.
/// Always runs one timed repetition; starts another only while the
/// previous one's length still fits in the budget.
Repetitions TimeRepetitions(double budget_sec,
                            const std::function<double()>& setup,
                            const std::function<void()>& rep,
                            std::size_t warmups = 0);

/// Times `fn` `count` times and returns the median duration in seconds.
double MedianTime(int count, const std::function<void()>& fn);

/// Set-up time of one call of `fn`: the median, over 21 batches, of a
/// batch's duration divided by its size. Batching keeps sub-microsecond
/// set-ups above the clock's resolution.
double MedianSetupTime(const std::function<void()>& fn, int batch = 1000);

/// In-memory span log. Spans nest per thread (the enclosing open span on
/// the same thread is the parent); a span's self time is its duration
/// minus the time its direct children cover.
class SpanLog {
 public:
  class Scope {
   public:
    /// `log` may be null: the scope is then inert (untraced runs).
    Scope(SpanLog* log, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  /// Total self time, in seconds, of every span with this name.
  double SelfSeconds(const std::string& name) const;
  /// Durations, in seconds, of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  std::size_t size() const;
  /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::uint64_t tid;
    std::int64_t parent;  // index, -1 for roots
    Clock::time_point start;
    Clock::time_point end;
  };
  std::size_t Open(const char* name, std::uint64_t request);
  void Close(std::size_t index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// Workload entry points. Each fills `result` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
void RunFigSweep(const Args& args, Result* result);
void RunTuneSweep(const Args& args, Result* result);
void RunServeBatch(const Args& args, Result* result);

/// Per-layer probes shared by every traced run: memory-hierarchy access
/// cost on a streaming and a reuse address stream, and per-kernel KIR /
/// Mali compile time over the nine benchmarks' tuned kernels.
void RunProbes(const Args& args, Result* result);

// Small fixed probes of the layers a traced run's own workload does not
// exercise, so every per-layer time is measured in every traced run: the
// traced sweep over the nine benchmarks at quick sizes, fp32 (cpu, mali,
// kir, ocl, sim, power, hpc); one tuner search, vecop fp32 (harness); and
// a 30-job serve batch (serve, fault, mali compile cache).
void ProbeSweepLayers(Result* result);
void ProbeTuneLayer(Result* result);
void ProbeServeLayer(Result* result);

}  // namespace perfbench

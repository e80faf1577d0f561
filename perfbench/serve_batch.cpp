// serve_batch: one serve::ServeEngine (1 shard, 2 workers) fed by this
// benchmark's single submitting thread, which mostly sleeps between polls.
// Two workers leave a shared 4-vCPU host headroom, as figsweep_full's two
// precision threads do. The job list is every combination of the nine
// benchmarks, the five ladder variants, both precisions and the three
// backends (mali, a15, hetero) at quick sizes: 270 jobs, shuffled by the
// seed, each with a seed-derived data seed. Faults are injected at rate
// 0.05 from a fixed fault seed.
//
// serve::GenerateLoad is not used: it documents "all backends" but pins
// every job to the Mali backend.
//
// Submission is a closed loop on the admission queue: the benchmark polls
// QueueDepth() and submits only while the queue is below its depth, so
// nothing is shed.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "hpc/benchmark.h"
#include "serve/engine.h"

namespace perfbench {

namespace hpc = malisim::hpc;
namespace serve = malisim::serve;
namespace sim = malisim::sim;

namespace {

constexpr int kWorkers = 2;
constexpr std::size_t kQueueDepth = 32;
constexpr double kFaultRate = 0.05;
constexpr std::uint64_t kFaultSeed = 2014;
constexpr std::size_t kProbeJobs = 30;  // batch size of the quick serve probe

std::vector<serve::JobSpec> MakeJobs(std::uint64_t seed) {
  static constexpr sim::BackendKind kBackends[] = {
      sim::BackendKind::kMali, sim::BackendKind::kA15,
      sim::BackendKind::kHetero};
  SplitMix rng(seed);
  std::vector<serve::JobSpec> jobs;
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    for (const hpc::Variant variant : hpc::kDegradationLadder) {
      for (const bool fp64 : {false, true}) {
        for (const sim::BackendKind backend : kBackends) {
          serve::JobSpec job;
          job.benchmark = name;
          job.sizes = hpc::ProblemSizes::Quick();
          job.variant = variant;
          job.fp64 = fp64;
          job.device = backend;
          job.seed = rng.Next();
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  rng.Shuffle(&jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i;
  return jobs;
}

serve::ServeOptions EngineOptions() {
  serve::ServeOptions options;
  options.workers_per_shard = kWorkers;
  options.shards = 1;
  options.queue_depth = kQueueDepth;
  options.fault.rate = kFaultRate;
  options.fault.seed = kFaultSeed;
  return options;
}

struct Batch {
  serve::ServeReport report;
  double host_sec = 0.0;  // first Submit until Drain returns
  std::uint64_t rejected = 0;
  std::vector<double> backlog;  // queue depth seen at each poll
};

Batch RunBatch(const std::vector<serve::JobSpec>& jobs, SpanLog* spans) {
  Batch batch;
  serve::ServeEngine engine(EngineOptions());
  const Clock::time_point t0 = Clock::now();
  for (const serve::JobSpec& job : jobs) {
    while (true) {
      const std::size_t depth = engine.QueueDepth();
      if (spans != nullptr) batch.backlog.push_back(static_cast<double>(depth));
      if (depth < kQueueDepth) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    SpanLog::Scope span(spans, "serve.submit", job.id);
    if (!engine.Submit(job).ok()) ++batch.rejected;
  }
  {
    SpanLog::Scope span(spans, "serve.drain");
    batch.report = engine.Drain();
  }
  batch.host_sec = SecondsSince(t0);
  return batch;
}

std::uint64_t Completed(const serve::ServeReport& r) {
  return r.count(serve::JobState::kOk) + r.count(serve::JobState::kDegraded);
}

void CheckBatch(const Batch& batch, std::size_t jobs, Result* result) {
  const serve::ServeReport& r = batch.report;
  result->Check(r.Consistent() && r.submitted == jobs,
                "ServeReport::Consistent() over " + std::to_string(jobs) +
                    " jobs");
  result->Check(batch.rejected == 0 && r.count(serve::JobState::kShed) == 0,
                "closed-loop submission shed nothing");
  result->Attempt(r.submitted, r.submitted - Completed(r));
}

/// Percentile of the engine's host job-latency histogram, interpolated
/// geometrically inside the log bucket holding the rank (the engine's own
/// estimate is the bucket edge, which repeats from run to run).
double HistogramPercentile(const malisim::obs::HistogramStat& stat, double p) {
  if (stat.count == 0) return 0.0;
  const malisim::obs::LogHistogram shape(stat.layout);
  const double rank = p / 100.0 * static_cast<double>(stat.count);
  double below = 0.0;
  for (const auto& [index, count] : stat.buckets) {
    const double n = static_cast<double>(count);
    if (below + n >= rank) {
      const double lo = std::max(shape.LowerEdge(index), stat.min);
      const double hi = std::min(shape.UpperEdge(index), stat.max);
      if (lo <= 0.0) return hi;
      return lo * std::pow(hi / lo, (rank - below) / n);
    }
    below += n;
  }
  return stat.max;
}

/// The traced batch: spans around every Submit and the drain, then the
/// CreateBenchmark + Setup every job pays, replayed under spans.
Batch TraceBatch(const std::vector<serve::JobSpec>& jobs, SpanLog* spans,
                 Result* result) {
  Batch traced = RunBatch(jobs, spans);
  CheckBatch(traced, jobs.size(), result);
  for (const serve::JobSpec& job : jobs) {
    SpanLog::Scope span(spans, "hpc.setup", job.id);
    std::unique_ptr<hpc::Benchmark> bench =
        hpc::CreateBenchmark(job.benchmark, job.sizes);
    if (bench == nullptr || !bench->Setup(job.fp64, job.seed).ok()) {
      result->Check(false, "setup replay " + job.benchmark);
    }
  }

  const serve::ServeReport& r = traced.report;
  double retries = 0.0, extra_attempts = 0.0;
  for (const serve::JobResult& job : r.results) {
    retries += job.retries;
    extra_attempts += std::max(0, job.attempts - 1);
  }
  double trips = 0.0;
  for (const auto& row : r.breakers) trips += static_cast<double>(row.trips);
  const auto latency = r.metrics.histograms.find("serve_host/job_latency_sec");
  const malisim::obs::HistogramStat no_latency;
  const malisim::obs::HistogramStat& lat =
      latency != r.metrics.histograms.end() ? latency->second : no_latency;
  const double hits = static_cast<double>(r.compile_cache_stats.hits);
  const double lookups = hits + static_cast<double>(r.compile_cache_stats.misses);
  const double completed = static_cast<double>(Completed(r));
  double backlog = 0.0;
  for (const double d : traced.backlog) backlog += d;

  result->Metric("hpc.setup_s", spans->SelfSeconds("hpc.setup"), "s");
  result->Metric("mali.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  result->Metric("serve.submit_us", Median(spans->Durations("serve.submit")) * 1e6, "us");
  result->Metric("serve.service_p50_ms", HistogramPercentile(lat, 50) * 1e3, "ms");
  result->Metric("serve.service_p99_ms", HistogramPercentile(lat, 99) * 1e3, "ms");
  result->Metric("serve.backlog_mean",
                 traced.backlog.empty() ? 0.0 : backlog / traced.backlog.size(), "jobs");
  result->Metric("serve.degraded_share",
                 completed > 0 ? r.count(serve::JobState::kDegraded) / completed : 0.0,
                 "ratio");
  result->Metric("serve.breaker_trips", trips, "count");
  result->Metric("fault.injected", retries + extra_attempts, "count");
  result->Metric("fault.retries", retries, "count");
  return traced;
}

}  // namespace

void RunServeBatch(const Args& args, Result* result) {
  // Set-up: job-list generation plus engine construction (its workers
  // start). Five samples before every batch; the engines are then drained
  // untimed.
  std::vector<serve::JobSpec> jobs = MakeJobs(args.seed);
  auto setup = [&] {
    std::vector<double> samples;
    std::vector<std::unique_ptr<serve::ServeEngine>> engines;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      jobs = MakeJobs(args.seed);
      engines.push_back(std::make_unique<serve::ServeEngine>(EngineOptions()));
      samples.push_back(SecondsSince(t0));
    }
    for (auto& engine : engines) engine->Drain();
    return Median(samples);
  };

  if (!args.trace) {
    std::vector<Batch> batches;
    const Repetitions reps = TimeRepetitions(
        args.seconds, setup, [&] { batches.push_back(RunBatch(jobs, nullptr)); },
        /*warmups=*/1);
    std::vector<double> host, rate;
    std::uint64_t submitted = 0, completed = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const Batch& b = batches[i];
      CheckBatch(b, jobs.size(), result);
      submitted += b.report.submitted;
      completed += Completed(b.report);
      if (i < reps.warmups) continue;
      host.push_back(b.host_sec);
      rate.push_back(static_cast<double>(Completed(b.report)) / b.host_sec);
    }
    result->Note(Summarize("host_s (one batch of " + std::to_string(jobs.size()) +
                               " jobs)", host, "s"));
    result->Note(Summarize("setup_s", reps.setup_seconds, "s"));
    result->Metric("setup_s", Median(reps.setup_seconds), "s");
    result->Metric("host_s", Median(host), "s");
    result->Metric("peak_rss_mb", reps.peak_rss_mb, "MB");
    result->Metric("jobs_ok_per_s", Median(rate), "jobs/s");
    result->Metric("ok_ratio",
                   static_cast<double>(completed) / static_cast<double>(submitted),
                   "ratio");
    return;
  }

  const Batch untraced = RunBatch(jobs, nullptr);
  CheckBatch(untraced, jobs.size(), result);
  SpanLog spans;
  const Batch traced = TraceBatch(jobs, &spans, result);
  result->Metric("obs.trace_overhead", traced.host_sec / untraced.host_sec, "ratio");
  result->Note(traced.report.ToText());
  if (!args.spans_out.empty()) spans.WriteChromeTrace(args.spans_out);
}

void ProbeServeLayer(Result* result) {
  std::vector<serve::JobSpec> jobs = MakeJobs(1);
  jobs.resize(kProbeJobs);
  SpanLog spans;
  TraceBatch(jobs, &spans, result);
}

}  // namespace perfbench

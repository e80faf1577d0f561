// tune_sweep: harness::TuneBenchmark over all nine benchmarks at fp32 and
// fp64, quick problem sizes, energy objective, a cold tuning cache per
// search and 2 tuner threads. The seed sets the benchmarks' input data,
// the search seed and the order of the eighteen searches.
//
// Two tuner threads leave a shared 4-vCPU host headroom, as
// figsweep_full's two precision threads do: each search waits for its
// slowest candidate thread, so with every vCPU busy, one vCPU slowed by a
// neighbour stalls the whole search.
//
// Traced run: one untraced sweep, then a traced one (see TraceSweep).
// TuneBenchmark exposes no hooks inside a search, so the per-candidate
// layers are measured on one representative candidate per search.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cpu/a15_device.h"
#include "harness/tuning.h"
#include "hpc/benchmark.h"
#include "ocl/runtime.h"

namespace perfbench {

namespace mh = malisim::harness;
namespace hpc = malisim::hpc;
namespace sim = malisim::sim;

namespace {

constexpr int kTunerThreads = 2;

std::vector<mh::TuningRequest> MakeRequests(std::uint64_t seed) {
  std::vector<mh::TuningRequest> requests;
  for (const std::string& name : hpc::RegisteredBenchmarks()) {
    for (const bool fp64 : {false, true}) {
      mh::TuningRequest request;
      request.benchmark = name;
      request.sizes = hpc::ProblemSizes::Quick();
      request.fp64 = fp64;
      request.seed = seed;
      request.tuner.objective = sim::Objective::kEnergy;
      request.tuner.seed = seed;
      request.tuner.threads = kTunerThreads;
      requests.push_back(std::move(request));
    }
  }
  SplitMix(seed ^ 0x7e5eULL).Shuffle(&requests);
  return requests;
}

bool IsExpectedNoWinner(const mh::TuningRequest& request) {
  // Every amcd FP64 candidate hits the Mali compiler erratum, so the
  // search finds nothing — the paper's missing DP bars.
  return request.benchmark == "amcd" && request.fp64;
}

struct Search {
  bool ok = false;
  std::string status;
  sim::TunerResult result;
};

std::vector<Search> RunSweep(const std::vector<mh::TuningRequest>& requests,
                             SpanLog* spans) {
  std::vector<Search> searches;
  for (mh::TuningRequest request : requests) {
    sim::TuningCache cache;  // cold: every search evaluates
    request.cache = &cache;
    SpanLog::Scope span(spans, "harness.tune");
    malisim::StatusOr<mh::TuningReport> report = mh::TuneBenchmark(request);
    Search s;
    s.ok = report.ok();
    s.status = report.status().ToString();
    if (report.ok()) s.result = report->result;
    searches.push_back(std::move(s));
  }
  return searches;
}

std::uint64_t Candidates(const sim::TunerResult& r) {
  return r.evaluated + r.skipped;
}

struct Tally {
  std::uint64_t winners = 0;
  std::uint64_t failed = 0;
  double energy_j = 0.0;  // sum of the winners' modelled energy
};

/// Counts one sweep's searches into `result`. A search fails when it finds
/// no winner, except the expected amcd FP64 search (and it also fails if
/// that one unexpectedly finds a winner).
Tally Account(const std::vector<mh::TuningRequest>& requests,
              const std::vector<Search>& searches, Result* result) {
  Tally tally;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    if (searches[i].ok) {
      ++tally.winners;
      tally.energy_j += searches[i].result.best_measurement.energy_j;
    }
    if (searches[i].ok == IsExpectedNoWinner(requests[i])) {
      ++tally.failed;
      result->Note("unexpected search outcome " + requests[i].benchmark +
                   (requests[i].fp64 ? " fp64: " : " fp32: ") +
                   searches[i].status);
    }
  }
  result->Attempt(searches.size(), tally.failed);
  return tally;
}

std::string Signature(const std::vector<Search>& searches) {
  std::string sig;
  for (const Search& s : searches) {
    sig += s.ok ? s.result.best.CanonicalKey() : "none";
    sig += ";";
  }
  return sig;
}

/// The traced sweep: a span around every TuneBenchmark call, then one
/// representative candidate per search — the winner, stood up the way the
/// tuner does (fresh Benchmark + Setup, fresh devices, RunTuned) — whose
/// setup and run times are scaled by the search's candidate count.
std::vector<Search> TraceSweep(const std::vector<mh::TuningRequest>& requests,
                               SpanLog* spans, Result* result) {
  const std::vector<Search> traced = RunSweep(requests, spans);
  Account(requests, traced, result);
  double setup_sec = 0.0, run_sec = 0.0;
  std::uint64_t evals = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!traced[i].ok) continue;
    const mh::TuningRequest& request = requests[i];
    const double n = static_cast<double>(Candidates(traced[i].result));
    evals += Candidates(traced[i].result);
    std::unique_ptr<hpc::Benchmark> bench;
    Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope span(spans, "hpc.setup");
      bench = hpc::CreateBenchmark(request.benchmark, request.sizes);
      result->Check(bench != nullptr && bench->Setup(request.fp64, request.seed).ok(),
                    "representative setup " + request.benchmark);
    }
    setup_sec += SecondsSince(t0) * n;
    malisim::cpu::CortexA15Device cpu_device;
    malisim::ocl::Context gpu_context(request.device);
    hpc::Devices devices{&cpu_device, &gpu_context};
    t0 = Clock::now();
    {
      SpanLog::Scope span(spans, "mali.run");
      const auto run = bench->RunTuned(traced[i].result.best, devices);
      result->Check(run.ok() && run->validated,
                    "representative candidate " + request.benchmark);
    }
    run_sec += SecondsSince(t0) * n;
  }
  result->Note(Summarize("harness.tune per search", spans->Durations("harness.tune"), "s"));
  result->Metric("harness.evals", static_cast<double>(evals), "count");
  result->Metric("harness.tune_ms_per_eval",
                 evals > 0 ? spans->SelfSeconds("harness.tune") * 1e3 /
                                 static_cast<double>(evals)
                           : 0.0,
                 "ms");
  result->Metric("hpc.setup_s", setup_sec, "s");
  result->Metric("mali.run_s", run_sec, "s");
  return traced;
}

}  // namespace

void RunTuneSweep(const Args& args, Result* result) {
  std::vector<mh::TuningRequest> requests = MakeRequests(args.seed);
  auto setup = [&] {
    return MedianSetupTime([&] { requests = MakeRequests(args.seed); });
  };

  if (!args.trace) {
    std::vector<std::vector<Search>> sweeps;
    const Repetitions reps = TimeRepetitions(
        args.seconds, setup, [&] { sweeps.push_back(RunSweep(requests, nullptr)); },
        /*warmups=*/1);
    const Tally first = Account(requests, sweeps.front(), result);
    std::uint64_t attempted = requests.size(), failed = first.failed;
    bool identical = true;
    for (std::size_t i = 1; i < sweeps.size(); ++i) {
      identical = identical && Signature(sweeps[i]) == Signature(sweeps.front());
      attempted += requests.size();
      failed += Account(requests, sweeps[i], result).failed;
    }
    std::uint64_t evals = 0;
    for (const Search& s : sweeps.front()) evals += Candidates(s.result);
    result->Check(first.failed == 0,
                  "every search returns a winner (" +
                      std::to_string(first.winners) +
                      " winners; amcd fp64 has none, as in the paper)");
    result->Check(identical, "winners identical across " +
                                 std::to_string(sweeps.size()) + " sweeps");
    const double host = Median(reps.seconds);
    result->Note(Summarize("host_s (one sweep = 18 searches)", reps.seconds, "s"));
    result->Note(std::to_string(evals) + " candidate evaluations per sweep");
    result->Metric("setup_s", Median(reps.setup_seconds), "s");
    result->Metric("host_s", host, "s");
    result->Metric("peak_rss_mb", reps.peak_rss_mb, "MB");
    result->Metric("jobs_ok_per_s", static_cast<double>(first.winners) / host,
                   "jobs/s");
    result->Metric("ok_ratio",
                   1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                   "ratio");
    result->Metric("tune_energy_j", first.energy_j, "J");
    return;
  }

  Clock::time_point t0 = Clock::now();
  const std::vector<Search> untraced = RunSweep(requests, nullptr);
  const double untraced_sec = SecondsSince(t0);
  SpanLog spans;
  t0 = Clock::now();
  const std::vector<Search> traced = TraceSweep(requests, &spans, result);
  const double traced_sec = SecondsSince(t0);
  result->Check(Signature(traced) == Signature(untraced),
                "traced winners equal the untraced run's");
  result->Metric("obs.trace_overhead", traced_sec / untraced_sec, "ratio");
  if (!args.spans_out.empty()) spans.WriteChromeTrace(args.spans_out);
}

void ProbeTuneLayer(Result* result) {
  std::vector<mh::TuningRequest> requests = MakeRequests(1);
  requests.erase(std::remove_if(requests.begin(), requests.end(),
                                [](const mh::TuningRequest& r) {
                                  return r.benchmark != "vecop" || r.fp64;
                                }),
                 requests.end());
  SpanLog spans;
  TraceSweep(requests, &spans, result);
}

}  // namespace perfbench

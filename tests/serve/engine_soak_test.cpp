// ServeEngine end-to-end battery (the Issue-8 acceptance tests):
//
//  * 1000-job soak at an elevated fault rate — every submission ends in
//    exactly one terminal state, per-state counts sum to submissions,
//    nothing lost or hung (the engine drains, so nothing can hang the
//    test without failing it).
//  * Backpressure: a tiny queue under a fast submitter sheds with typed
//    Overloaded results and still accounts every job.
//  * Mid-soak shutdown (the SIGINT path): BeginShutdown while submitting
//    drains in-flight work, sheds the rest, invariant intact.
//  * Breaker trip -> route-down -> half-open probe -> recover, observed
//    through the engine on a deterministically failing job mix.
//  * Deadlines: a budget too small for any rung terminates jobs as
//    deadline-exceeded, never hangs them.
//  * Determinism and single-job replay: per-job fault schedules depend
//    only on (base seed, job id, rung), so a full soak is reproducible
//    and any non-rerouted job replays bit-identically on its own.
#include "serve/engine.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "serve/job.h"

namespace malisim::serve {
namespace {

ServeOptions SoakOptions() {
  ServeOptions options;
  options.workers_per_shard = 4;
  options.shards = 2;
  options.queue_depth = 4096;  // accept everything: this test is about
                               // execution states, not shedding
  options.default_deadline_sec = 5.0;
  options.fault.rate = 0.25;  // elevated: the soak is a fault soak
  options.fault.seed = 20260809;
  options.fault.watchdog_sec = 1.0;
  return options;
}

std::uint64_t SumStates(const ServeReport& report) {
  std::uint64_t sum = 0;
  for (int s = 0; s < kNumJobStates; ++s) {
    sum += report.count(static_cast<JobState>(s));
  }
  return sum;
}

TEST(ServeEngineSoakTest, ThousandJobFaultSoakLosesNothing) {
  const std::vector<JobSpec> jobs = GenerateLoad(1000, 7);
  ServeEngine engine(SoakOptions());
  for (const JobSpec& job : jobs) {
    ASSERT_TRUE(engine.Submit(job).ok()) << "queue_depth covers the batch";
  }
  const ServeReport report = engine.Drain();

  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(report.submitted, 1000u);
  ASSERT_EQ(report.results.size(), 1000u);
  EXPECT_EQ(SumStates(report), 1000u);
  EXPECT_EQ(report.count(JobState::kShed), 0u);

  // Exactly one result per job id, ascending.
  std::set<std::uint64_t> ids;
  for (const JobResult& r : report.results) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), 999u);

  // At this fault rate the ladder (and the breakers riding it) must have
  // been exercised hard — most jobs complete degraded — yet the vast
  // majority still complete successfully SOMEWHERE on the ladder. The
  // exact ok/degraded split is load-dependent (breakers), so only broad
  // bounds are asserted.
  EXPECT_GT(report.count(JobState::kDegraded), 100u);
  EXPECT_GT(report.count(JobState::kOk), 0u);
  EXPECT_GE(report.count(JobState::kOk) + report.count(JobState::kDegraded),
            800u);

  // The deterministic counters agree with the report.
  const auto submitted = report.metrics.counters.find("serve/jobs_submitted");
  ASSERT_NE(submitted, report.metrics.counters.end());
  EXPECT_DOUBLE_EQ(submitted->second, 1000.0);
  const auto ok = report.metrics.counters.find("serve/jobs_ok");
  ASSERT_NE(ok, report.metrics.counters.end());
  EXPECT_DOUBLE_EQ(ok->second,
                   static_cast<double>(report.count(JobState::kOk)));
  // Jobs share one compile cache: far fewer real compiles than runs.
  EXPECT_GT(report.compile_cache_stats.hits,
            report.compile_cache_stats.misses);
}

TEST(ServeEngineSoakTest, TinyQueueShedsWithTypedOverloadAndLosesNothing) {
  ServeOptions options = SoakOptions();
  options.workers_per_shard = 1;
  options.shards = 1;
  options.queue_depth = 2;
  options.fault.rate = 0.0;
  ServeEngine engine(options);

  const std::vector<JobSpec> jobs = GenerateLoad(40, 3);
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (const JobSpec& job : jobs) {
    const Status s = engine.Submit(job);
    if (s.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(s.code(), ErrorCode::kOverloaded) << s.ToString();
      ++shed;
    }
  }
  const ServeReport report = engine.Drain();
  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(report.submitted, 40u);
  EXPECT_EQ(SumStates(report), 40u);
  EXPECT_EQ(report.count(JobState::kShed), shed);
  EXPECT_GT(shed, 0u) << "a 2-deep queue must shed a 40-job burst";
  EXPECT_GT(accepted, 0u);
  for (const JobResult& r : report.results) {
    if (r.state == JobState::kShed) {
      EXPECT_NE(r.error.find("Overloaded"), std::string::npos) << r.error;
    }
  }
}

TEST(ServeEngineSoakTest, MidSoakShutdownDrainsCleanly) {
  ServeOptions options = SoakOptions();
  options.queue_depth = 4096;
  ServeEngine engine(options);
  const std::vector<JobSpec> jobs = GenerateLoad(300, 11);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == 100) engine.BeginShutdown();  // SIGINT mid-soak
    const Status admitted = engine.Submit(jobs[i]);
    if (i >= 100) {
      EXPECT_EQ(admitted.code(), ErrorCode::kOverloaded) << admitted.ToString();
    }
  }
  const ServeReport report = engine.Drain();
  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(report.submitted, 300u);
  EXPECT_EQ(SumStates(report), 300u);
  // Everything after the shutdown shed; everything before it ran.
  EXPECT_EQ(report.count(JobState::kShed), 200u);
  EXPECT_EQ(report.count(JobState::kOk) + report.count(JobState::kDegraded) +
                report.count(JobState::kDeadlineExceeded) +
                report.count(JobState::kFailed),
            100u);
}

TEST(ServeEngineSoakTest, BreakerTripsRoutesDownAndRecovers) {
  // Single worker, deterministic order. amcd fp64 hits the compiler
  // erratum on both OpenCL rungs every time: two such jobs trip the
  // OpenCL Opt and OpenCL breakers (threshold 2). The next job routes
  // straight past the open rungs (cooldown tick), and the one after is
  // admitted as the half-open probe — an fp32 job that succeeds and
  // closes the breaker.
  ServeOptions options;
  options.workers_per_shard = 1;
  options.shards = 1;
  options.queue_depth = 64;
  options.fault.rate = 0.0;  // only the deterministic erratum
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown = 1;
  ServeEngine engine(options);

  auto amcd = [](std::uint64_t id) {
    JobSpec job;
    job.id = id;
    job.benchmark = "amcd";
    job.sizes = hpc::ProblemSizes::Quick();
    job.fp64 = true;
    job.variant = hpc::Variant::kOpenCLOpt;
    job.seed = 5;
    return job;
  };
  auto spmv = [](std::uint64_t id) {
    JobSpec job;
    job.id = id;
    job.benchmark = "spmv";
    job.sizes = hpc::ProblemSizes::Quick();
    job.variant = hpc::Variant::kOpenCLOpt;
    job.seed = 5;
    return job;
  };

  ASSERT_TRUE(engine.Submit(amcd(0)).ok());  // fails opt+cl, degrades
  ASSERT_TRUE(engine.Submit(amcd(1)).ok());  // same; trips both breakers
  ASSERT_TRUE(engine.Submit(spmv(2)).ok());  // rerouted past open rungs
  ASSERT_TRUE(engine.Submit(spmv(3)).ok());  // half-open probe, succeeds
  ASSERT_TRUE(engine.Submit(spmv(4)).ok());  // breaker closed again
  const ServeReport report = engine.Drain();

  ASSERT_TRUE(report.Consistent());
  ASSERT_EQ(report.results.size(), 5u);
  const JobResult& first_amcd = report.results[0];
  EXPECT_EQ(first_amcd.state, JobState::kDegraded);
  EXPECT_EQ(first_amcd.ran, hpc::Variant::kOpenMP);
  EXPECT_FALSE(first_amcd.breaker_rerouted);

  const JobResult& rerouted = report.results[2];
  EXPECT_EQ(rerouted.state, JobState::kDegraded);
  EXPECT_TRUE(rerouted.breaker_rerouted);
  EXPECT_EQ(rerouted.ran, hpc::Variant::kOpenMP)
      << "both OpenCL rungs were open";

  const JobResult& probe = report.results[3];
  EXPECT_EQ(probe.state, JobState::kOk) << probe.error;
  EXPECT_EQ(probe.ran, hpc::Variant::kOpenCLOpt);

  const JobResult& after = report.results[4];
  EXPECT_EQ(after.state, JobState::kOk) << after.error;
  EXPECT_FALSE(after.breaker_rerouted) << "OpenCL Opt recovered";

  for (const ServeReport::BreakerRow& row : report.breakers) {
    if (row.rung == hpc::Variant::kOpenCLOpt) {
      EXPECT_GE(row.trips, 1u);
      EXPECT_EQ(row.state, fault::BreakerState::kClosed)
          << "recovered by probe";
    }
  }
}

TEST(ServeEngineSoakTest, ImpossibleDeadlineTerminatesNotHangs) {
  ServeOptions options = SoakOptions();
  options.fault.rate = 0.0;
  options.default_deadline_sec = 1e-9;  // no rung can finish in this
  ServeEngine engine(options);
  const std::vector<JobSpec> jobs = GenerateLoad(12, 2);
  for (const JobSpec& job : jobs) ASSERT_TRUE(engine.Submit(job).ok());
  const ServeReport report = engine.Drain();
  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(report.count(JobState::kDeadlineExceeded), 12u);
  for (const JobResult& r : report.results) {
    EXPECT_GT(r.consumed_sec, 0.0) << "the first rung did run";
    EXPECT_FALSE(r.error.empty());
  }
}

// ---------------------------------------------------------------------------
// Determinism and replay.
// ---------------------------------------------------------------------------

ServeOptions ReplayOptions() {
  ServeOptions options = SoakOptions();
  options.fault.rate = 0.3;
  // Breakers are load-dependent by design; disable them (threshold far
  // above any streak) so every job's path is a pure function of its spec.
  options.breaker.failure_threshold = 1 << 20;
  return options;
}

void ExpectSameResult(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.seconds, b.seconds) << "bit-identical, not approximately";
  EXPECT_EQ(a.consumed_sec, b.consumed_sec);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_sec, b.backoff_sec);
  EXPECT_EQ(a.error, b.error);
}

TEST(ServeEngineSoakTest, ConcurrentSoakIsDeterministic) {
  const std::vector<JobSpec> jobs = GenerateLoad(60, 9);
  ServeEngine first(ReplayOptions());
  for (const JobSpec& job : jobs) ASSERT_TRUE(first.Submit(job).ok());
  const ServeReport a = first.Drain();
  ServeEngine second(ReplayOptions());
  for (const JobSpec& job : jobs) ASSERT_TRUE(second.Submit(job).ok());
  const ServeReport b = second.Drain();

  ASSERT_TRUE(a.Consistent());
  ASSERT_TRUE(b.Consistent());
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE(a.results[i].id);
    ExpectSameResult(a.results[i], b.results[i]);
  }
}

TEST(ServeEngineSoakTest, SingleJobReplayIsBitIdentical) {
  // Run a faulty soak, then replay individual jobs alone in a fresh
  // engine: the per-job fault seed depends only on (base seed, job id,
  // rung), so each replay reproduces its soak result exactly even though
  // the soak ran under concurrency and the replay does not.
  const std::vector<JobSpec> jobs = GenerateLoad(30, 13);
  ServeEngine soak(ReplayOptions());
  for (const JobSpec& job : jobs) ASSERT_TRUE(soak.Submit(job).ok());
  const ServeReport full = soak.Drain();
  ASSERT_TRUE(full.Consistent());
  ASSERT_EQ(full.results.size(), 30u);

  int replayed = 0;
  for (const std::size_t index : {0u, 7u, 13u, 23u, 29u}) {
    const JobResult& original = full.results[index];
    ASSERT_FALSE(original.breaker_rerouted)
        << "breakers disabled: replay must be exact";
    ServeEngine replay(ReplayOptions());
    ASSERT_TRUE(replay.Submit(jobs[index]).ok());
    const ServeReport one = replay.Drain();
    ASSERT_EQ(one.results.size(), 1u);
    SCOPED_TRACE(original.id);
    ExpectSameResult(original, one.results[0]);
    ++replayed;
  }
  EXPECT_EQ(replayed, 5);
}

}  // namespace
}  // namespace malisim::serve

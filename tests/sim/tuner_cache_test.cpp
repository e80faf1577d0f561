// TuningCache battery: JSON round-trip, deterministic byte-identical
// serialization, save/load through the filesystem, 100% cache-hit
// re-tuning with byte-identical winners, and graceful rejection of
// corrupt, truncated and wrong-schema cache files. The harness-level
// round trip (TuneBenchmark against a cache file) lives in
// tuner_conformance_test.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/tuner.h"

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>
#endif

namespace malisim::sim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

TuningCacheEntry Entry(const std::string& config_key, double score) {
  TuningCacheEntry entry;
  entry.config_key = config_key;
  entry.objective = "energy";
  entry.score = score;
  entry.seconds = score / 2.0;
  entry.energy_j = score;
  return entry;
}

TEST(TuningCacheTest, RoundTripPreservesEntries) {
  TuningCache cache;
  cache.Insert("key-a", Entry("vec=4,wg=128", 1.25));
  cache.Insert("key-b", Entry("vec=2,wg=64", 3.5));
  const std::string text = cache.Serialize();

  auto loaded = TuningCache::Deserialize(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  TuningCacheEntry out;
  ASSERT_TRUE(loaded->Lookup("key-a", &out));
  EXPECT_EQ(out.config_key, "vec=4,wg=128");
  EXPECT_EQ(out.objective, "energy");
  EXPECT_EQ(out.score, 1.25);
  EXPECT_EQ(out.seconds, 0.625);
  EXPECT_EQ(out.energy_j, 1.25);
  // Round-tripping is byte-stable: serialize(deserialize(x)) == x.
  EXPECT_EQ(loaded->Serialize(), text);
}

TEST(TuningCacheTest, SerializationIsInsertionOrderIndependent) {
  TuningCache forward;
  forward.Insert("aaa", Entry("x=1", 1.0));
  forward.Insert("bbb", Entry("x=2", 2.0));
  forward.Insert("ccc", Entry("x=3", 3.0));
  TuningCache reverse;
  reverse.Insert("ccc", Entry("x=3", 3.0));
  reverse.Insert("aaa", Entry("x=1", 1.0));
  reverse.Insert("bbb", Entry("x=2", 2.0));
  EXPECT_EQ(forward.Serialize(), reverse.Serialize());
}

TEST(TuningCacheTest, SaveLoadFileByteIdentical) {
  TuningCache cache;
  cache.Insert("key", Entry("vec=4,wg=128,copy=0", 0.125));
  const std::string path = TempPath("tuner_cache_roundtrip.json");
  ASSERT_TRUE(cache.SaveFile(path).ok());
  const TuningCache loaded = TuningCache::LoadFileOrEmpty(path);
  EXPECT_EQ(loaded.Serialize(), cache.Serialize());
  std::remove(path.c_str());
}

TEST(TuningCacheTest, SaveFileMergesEntriesAlreadyOnDisk) {
  // Two processes tuning different problems against the same cache file
  // must both survive: SaveFile merges the on-disk entries before the
  // atomic replace instead of clobbering them.
  const std::string path = TempPath("tuner_cache_merge.json");
  std::remove(path.c_str());
  TuningCache first;
  first.Insert("key-first", Entry("vec=1", 1.0));
  ASSERT_TRUE(first.SaveFile(path).ok());
  TuningCache second;
  second.Insert("key-second", Entry("vec=2", 2.0));
  ASSERT_TRUE(second.SaveFile(path).ok());

  const TuningCache merged = TuningCache::LoadFileOrEmpty(path);
  TuningCacheEntry out;
  EXPECT_TRUE(merged.Lookup("key-first", &out));
  EXPECT_TRUE(merged.Lookup("key-second", &out));
  EXPECT_EQ(merged.size(), 2u);
  std::remove(path.c_str());
}

TEST(TuningCacheTest, SaveFileInMemoryEntryWinsOverDisk) {
  // Same key on disk and in memory: the saver's (newer) entry wins.
  const std::string path = TempPath("tuner_cache_conflict.json");
  std::remove(path.c_str());
  TuningCache stale;
  stale.Insert("key", Entry("vec=1", 9.0));
  ASSERT_TRUE(stale.SaveFile(path).ok());
  TuningCache fresh;
  fresh.Insert("key", Entry("vec=4", 1.0));
  ASSERT_TRUE(fresh.SaveFile(path).ok());

  const TuningCache loaded = TuningCache::LoadFileOrEmpty(path);
  TuningCacheEntry out;
  ASSERT_TRUE(loaded.Lookup("key", &out));
  EXPECT_EQ(out.config_key, "vec=4");
  std::remove(path.c_str());
}

TEST(TuningCacheTest, SaveFileLeavesNoTempFileBehind) {
  const std::string path = TempPath("tuner_cache_no_temp.json");
  std::remove(path.c_str());
  TuningCache cache;
  cache.Insert("key", Entry("vec=4", 1.0));
  ASSERT_TRUE(cache.SaveFile(path).ok());
#ifndef _WIN32
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream probe(temp);
  EXPECT_FALSE(probe.good()) << "temp file left behind: " << temp;
  std::ifstream lock(path + ".lock");
  EXPECT_FALSE(lock.good()) << "lock file left behind";
#endif
  std::remove(path.c_str());
}

#ifndef _WIN32
TEST(TuningCacheTest, StaleLockFileIsStolenNotFatal) {
  // A crashed writer leaves `<path>.lock` behind. SaveFile must treat a
  // sufficiently old lock as abandoned, steal it, and still persist.
  const std::string path = TempPath("tuner_cache_stale_lock.json");
  const std::string lock = path + ".lock";
  std::remove(path.c_str());
  WriteFile(lock, "pid 99999\n");
  struct utimbuf ancient;
  ancient.actime = ancient.modtime = 1;  // 1970: definitely stale
  ASSERT_EQ(::utime(lock.c_str(), &ancient), 0);

  TuningCache cache;
  cache.Insert("key", Entry("vec=4", 1.0));
  ASSERT_TRUE(cache.SaveFile(path).ok());
  const TuningCache loaded = TuningCache::LoadFileOrEmpty(path);
  TuningCacheEntry out;
  EXPECT_TRUE(loaded.Lookup("key", &out));
  // The stolen lock was released on the way out.
  std::ifstream probe(lock);
  EXPECT_FALSE(probe.good());
  std::remove(path.c_str());
}
#endif

/// Cache key of writer `w`'s round `r`, built in place (GCC 12 reports a
/// false -Wrestrict overlap for `"literal" + std::string` temporaries).
std::string WriterKey(int w, int r) {
  std::string key = "w";
  key += std::to_string(w);
  key += "-r";
  key += std::to_string(r);
  return key;
}

TEST(TuningCacheTest, ConcurrentWritersFuzzLosesNothingAndNeverTears) {
  // N writer threads hammer the same cache file with disjoint keys while a
  // reader polls the raw bytes. Locked load-merge-write means every key
  // survives; atomic temp+rename means the reader never observes a torn
  // (unparseable) document.
  const std::string path = TempPath("tuner_cache_fuzz.json");
  std::remove(path.c_str());
  constexpr int kWriters = 4;
  constexpr int kRounds = 6;

  std::atomic<bool> done{false};
  std::atomic<int> torn_reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::ostringstream text;
        text << in.rdbuf();
        if (!text.str().empty() &&
            !TuningCache::Deserialize(text.str()).ok()) {
          torn_reads.fetch_add(1);
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        TuningCache mine;
        const std::string key = WriterKey(w, r);
        mine.Insert(key, Entry("vec=" + std::to_string(w + 1),
                               static_cast<double>(r + 1)));
        EXPECT_TRUE(mine.SaveFile(path).ok()) << key;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(torn_reads.load(), 0) << "reader saw a partially-written cache";
  const TuningCache merged = TuningCache::LoadFileOrEmpty(path);
  EXPECT_EQ(merged.size(),
            static_cast<std::size_t>(kWriters * kRounds));
  for (int w = 0; w < kWriters; ++w) {
    for (int r = 0; r < kRounds; ++r) {
      TuningCacheEntry out;
      EXPECT_TRUE(merged.Lookup(WriterKey(w, r), &out))
          << "lost w" << w << "-r" << r;
    }
  }
  std::remove(path.c_str());
}

TEST(TuningCacheTest, MissingFileIsSilentlyEmpty) {
  const TuningCache cache =
      TuningCache::LoadFileOrEmpty(TempPath("does_not_exist_cache.json"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, CorruptFilesRejectedGracefully) {
  TuningCache good;
  good.Insert("key", Entry("vec=4", 1.0));
  const std::string good_text = good.Serialize();

  const std::vector<std::pair<std::string, std::string>> corrupt = {
      {"garbage", "this is not json at all\n"},
      {"empty_object", "{}\n"},
      {"wrong_schema", "{\"schema\":\"malisim-bench-v1\",\"entries\":{}}\n"},
      // A truncated write: a valid prefix of a real cache document.
      {"truncated", good_text.substr(0, good_text.size() / 2)},
      {"zero_bytes", ""},
  };
  for (const auto& [name, text] : corrupt) {
    SCOPED_TRACE(name);
    // Deserialize is strict...
    EXPECT_FALSE(TuningCache::Deserialize(text).ok());
    // ...LoadFileOrEmpty degrades to an empty cache, never an error.
    const std::string path = TempPath("tuner_cache_" + name + ".json");
    WriteFile(path, text);
    const TuningCache cache = TuningCache::LoadFileOrEmpty(path);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Cache-hit re-tuning at the engine level: search once, persist the
// winner, then resolve the same problem from the cache alone — zero
// evaluations, byte-identical winner.
// ---------------------------------------------------------------------------

TuningSpace CacheSpace() {
  TuningSpace space;
  space.axes = {{"vec", {1, 2, 4}}, {"wg", {32, 64, 128}}};
  return space;
}

StatusOr<TuningMeasurement> CacheEval(const TuningConfig& config) {
  const std::uint64_t h = Fnv1a64(config.CanonicalKey());
  TuningMeasurement m;
  m.seconds = 1.0 + static_cast<double>(h % 997) / 100.0;
  m.energy_j = 2.0 * m.seconds;
  return m;
}

TEST(TuningCacheTest, ReTuneFromCacheIsByteIdenticalWithZeroEvals) {
  const TuningSpace space = CacheSpace();
  const DeviceCaps caps;  // defaults are fine: the key only needs stability
  const std::string key =
      TuningCacheKey("fingerprint123", caps, Objective::kEnergy, space);

  TunerOptions options;
  options.objective = Objective::kEnergy;
  Tuner tuner(options);
  auto first = tuner.Search(space, CacheEval);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Persist the winner the way the harness adapter does.
  TuningCache cache;
  TuningCacheEntry entry;
  entry.config_key = first->best.CanonicalKey();
  entry.objective = std::string(ObjectiveName(Objective::kEnergy));
  entry.score = first->best_score;
  entry.seconds = first->best_measurement.seconds;
  entry.energy_j = first->best_measurement.energy_j;
  cache.Insert(key, entry);
  const std::string path = TempPath("tuner_cache_retune.json");
  ASSERT_TRUE(cache.SaveFile(path).ok());

  // "Re-tune": the same problem resolves from the loaded cache with no
  // evaluation at all, and the winner is byte-identical.
  const TuningCache loaded = TuningCache::LoadFileOrEmpty(path);
  TuningCacheEntry hit;
  ASSERT_TRUE(loaded.Lookup(key, &hit));
  auto config = ConfigFromKey(space, hit.config_key);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->CanonicalKey(), first->best.CanonicalKey());
  EXPECT_EQ(hit.score, first->best_score);
  EXPECT_EQ(hit.seconds, first->best_measurement.seconds);
  EXPECT_EQ(hit.energy_j, first->best_measurement.energy_j);
  std::remove(path.c_str());
}

TEST(TuningCacheTest, KeySensitivity) {
  const TuningSpace space = CacheSpace();
  DeviceCaps caps;
  caps.compute_units = 4;
  caps.clock_hz = 533e6;
  const std::string base =
      TuningCacheKey("fp", caps, Objective::kEnergy, space);
  // Objective, fingerprint, device caps and space all enter the address.
  EXPECT_NE(base, TuningCacheKey("fp", caps, Objective::kTime, space));
  EXPECT_NE(base, TuningCacheKey("fp2", caps, Objective::kEnergy, space));
  DeviceCaps other = caps;
  other.clock_hz = 266e6;
  EXPECT_NE(base, TuningCacheKey("fp", other, Objective::kEnergy, space));
  TuningSpace wider = space;
  wider.axes.push_back({"unroll", {1, 2}});
  EXPECT_NE(base, TuningCacheKey("fp", caps, Objective::kEnergy, wider));
  // The throughput hint is a scheduling seed, not an identity: it must
  // NOT invalidate cached winners.
  DeviceCaps hinted = caps;
  hinted.throughput_hint = 12345.0;
  EXPECT_EQ(base, TuningCacheKey("fp", hinted, Objective::kEnergy, space));
}

TEST(TuningCacheTest, ConfigFromKeyResolvesAgainstSpace) {
  const TuningSpace space = CacheSpace();
  auto full = ConfigFromKey(space, "vec=4,wg=64");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->CanonicalKey(), "vec=4,wg=64");
  // Omitted axes resolve to the axis's first value.
  auto partial = ConfigFromKey(space, "wg=128");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->CanonicalKey(), "vec=1,wg=128");
  // A value outside the space is an error, not a silent winner.
  EXPECT_FALSE(ConfigFromKey(space, "vec=8,wg=64").ok());
  EXPECT_FALSE(ConfigFromKey(space, "bogus=1").ok());
}

}  // namespace
}  // namespace malisim::sim

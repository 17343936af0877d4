#include "core/result_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/flow_engine.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/error.hpp"

namespace iddq::core {
namespace {

CacheRecord sample_record() {
  CacheRecord r;
  r.method = "evolution+greedy";
  r.gate_count = 9;
  r.modules = {{3, 5, 4}, {6, 7}, {8}};
  r.fitness.violation = 0.0;
  r.fitness.cost = 3307.1927303185653;
  r.costs = {11.608089185189689, 0.031854938377842958, 3.2958368660043291,
             3.9302530015577775, 1.0};
  r.iterations = 10;
  r.evaluations = 728;
  return r;
}

void expect_record_eq(const CacheRecord& a, const CacheRecord& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.gate_count, b.gate_count);
  EXPECT_EQ(a.modules, b.modules);
  // Bit-pattern comparison: the cache must round-trip doubles exactly.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.violation),
            std::bit_cast<std::uint64_t>(b.fitness.violation));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.cost),
            std::bit_cast<std::uint64_t>(b.fitness.cost));
  const auto ca = a.costs.as_array();
  const auto cb = b.costs.as_array();
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ca[i]),
              std::bit_cast<std::uint64_t>(cb[i]));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(testing::TempDir()) /
                   ("iddq_cache_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ResultCacheSerialization, RoundTripsExactly) {
  const CacheRecord record = sample_record();
  const std::string line = ResultCache::serialize(0xDEADBEEF12345678ull,
                                                  record);
  std::uint64_t key = 0;
  CacheRecord parsed;
  ASSERT_TRUE(ResultCache::parse(line, key, parsed)) << line;
  EXPECT_EQ(key, 0xDEADBEEF12345678ull);
  expect_record_eq(record, parsed);
}

TEST(ResultCacheSerialization, RoundTripsAwkwardDoubles) {
  CacheRecord record = sample_record();
  record.fitness.violation = 1.0 / 3.0;
  record.fitness.cost = 1e-300;
  record.costs.c1 = -0.0;  // normalized to +0.0 on the wire; both read 0.0
  record.costs.c2 = 6.02214076e23;
  const std::string line = ResultCache::serialize(7, record);
  std::uint64_t key = 0;
  CacheRecord parsed;
  ASSERT_TRUE(ResultCache::parse(line, key, parsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.fitness.violation),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.fitness.cost),
            std::bit_cast<std::uint64_t>(1e-300));
  EXPECT_EQ(parsed.costs.c1, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.costs.c2),
            std::bit_cast<std::uint64_t>(6.02214076e23));
}

TEST(ResultCacheSerialization, RejectsMalformedLines) {
  std::uint64_t key = 0;
  CacheRecord out;
  EXPECT_FALSE(ResultCache::parse("", key, out));
  EXPECT_FALSE(ResultCache::parse("not json", key, out));
  EXPECT_FALSE(ResultCache::parse("{}", key, out));
  EXPECT_FALSE(ResultCache::parse("{\"key\":\"12\"}", key, out));  // no modules
  const std::string good = ResultCache::serialize(1, sample_record());
  EXPECT_FALSE(
      ResultCache::parse(good.substr(0, good.size() / 2), key, out));
  EXPECT_TRUE(ResultCache::parse(good, key, out));
}

// The results.jsonl line format is a compatibility contract: directories
// written by older builds must keep loading, so the bytes are pinned.
TEST(ResultCacheSerialization, PinsLineBytes) {
  EXPECT_EQ(ResultCache::serialize(0xDEADBEEF12345678ull, sample_record()),
            "{\"key\":\"deadbeef12345678\",\"method\":\"evolution+greedy\","
            "\"gates\":9,\"violation\":0,\"cost\":3307.1927303185653,"
            "\"c\":[11.608089185189689,0.031854938377842958,"
            "3.2958368660043291,3.9302530015577775,1],\"iters\":10,"
            "\"evals\":728,\"modules\":[[3,5,4],[6,7],[8]]}");

  CacheRecord coverage = sample_record();
  coverage.method = "portfolio:evolution,annealing";
  coverage.fitness.violation = 0.25;
  coverage.has_coverage = true;
  coverage.faults_total = 240;
  coverage.faults_detected = 181;
  coverage.patterns_used = 256;
  coverage.patterns_minimized = 19;
  EXPECT_EQ(ResultCache::serialize(0x00000000000000A1ull, coverage),
            "{\"key\":\"00000000000000a1\","
            "\"method\":\"portfolio:evolution,annealing\",\"gates\":9,"
            "\"violation\":0.25,\"cost\":3307.1927303185653,"
            "\"c\":[11.608089185189689,0.031854938377842958,"
            "3.2958368660043291,3.9302530015577775,1],\"iters\":10,"
            "\"evals\":728,\"cov\":[240,181,256,19],"
            "\"modules\":[[3,5,4],[6,7],[8]]}");
}

TEST(ResultCacheSerialization, RejectsEveryMalformedLine) {
  const std::string good =
      "{\"key\":\"00000000000000a1\",\"method\":\"random\",\"gates\":3,"
      "\"violation\":0,\"cost\":1.5,\"c\":[1,2,3,4,5],\"iters\":1,"
      "\"evals\":2,\"modules\":[[1,2]]}";
  std::uint64_t key = 0;
  CacheRecord out;
  ASSERT_TRUE(ResultCache::parse(good, key, out));
  EXPECT_EQ(key, 0xA1u);
  EXPECT_EQ(out.modules, (std::vector<std::vector<netlist::GateId>>{{1, 2}}));

  const auto with = [&good](std::string_view from, std::string_view to) {
    std::string line = good;
    const auto at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
  };
  const std::string bad[] = {
      good.substr(0, good.size() - 1),           // truncated: no '}'
      good.substr(0, good.find("\"modules\"")),  // truncated mid-object
      with("\"iters\"", "\"extra\":1,\"iters\""),  // unknown field
      with(",\"modules\":[[1,2]]", ""),          // no modules
      with("\"modules\":[[1,2]]", "\"modules\":[]"),  // no module at all
      with("{\"key\":\"00000000000000a1\",", "{"),    // no key
      with("00000000000000a1", "xyz"),           // key not hex
      with("\"random\"", "\"\""),                // empty method
      with("\"gates\":3", "\"gates\":0"),        // zero gates
      with("\"gates\":3", "\"gates\":-3"),       // negative count
      with("\"gates\":3", "\"gates\":\"3\""),    // wrong type
      with("[1,2,3,4,5]", "[1,2,3,4]"),          // short cost vector
      with("[1,2,3,4,5]", "[1,2,3,4,5,6]"),      // long cost vector
      with("[[1,2]]", "[[1,2.5]]"),              // fractional gate id
      with("[[1,2]]", "[[1,-2]]"),               // negative gate id
      with("[[1,2]]", "[[1,2]"),                 // unbalanced brackets
  };
  for (const std::string& line : bad)
    EXPECT_FALSE(ResultCache::parse(line, key, out)) << line;
}

TEST(ResultCacheSerialization, RejectsGateIdsPastGateIdRange) {
  const std::string good =
      "{\"key\":\"00000000000000a1\",\"method\":\"random\",\"gates\":9,"
      "\"violation\":0,\"cost\":1.5,\"c\":[1,2,3,4,5],\"iters\":1,"
      "\"evals\":2,\"modules\":[[4294967295,7]]}";
  std::uint64_t key = 0;
  CacheRecord out;
  ASSERT_TRUE(ResultCache::parse(good, key, out));  // UINT32_MAX still fits
  EXPECT_EQ(out.modules[0][0], 4294967295u);

  // 2^32 + 6 must not wrap to gate 6 and replay as a different partition.
  std::string wrapped = good;
  wrapped.replace(wrapped.find("4294967295"), 10, "4294967302");
  EXPECT_FALSE(ResultCache::parse(wrapped, key, out)) << wrapped;
  std::string huge = good;
  huge.replace(huge.find("4294967295"), 10, "18446744073709551616");
  EXPECT_FALSE(ResultCache::parse(huge, key, out)) << huge;
}

TEST(ResultCacheSerialization, RejectsTrailingBytes) {
  const std::string good = ResultCache::serialize(1, sample_record());
  std::uint64_t key = 0;
  CacheRecord out;
  for (const std::string& line : {good + "x", good + "}", good + ",{}"})
    EXPECT_FALSE(ResultCache::parse(line, key, out)) << line;
  EXPECT_TRUE(ResultCache::parse(good + " \t", key, out));
}

TEST(ResultCacheSerialization, CoverageFieldsRoundTrip) {
  CacheRecord record = sample_record();
  record.has_coverage = true;
  record.faults_total = 240;
  record.faults_detected = 181;
  record.patterns_used = 256;
  record.patterns_minimized = 19;
  const std::string line = ResultCache::serialize(9, record);
  std::uint64_t key = 0;
  CacheRecord parsed;
  ASSERT_TRUE(ResultCache::parse(line, key, parsed)) << line;
  EXPECT_TRUE(parsed.has_coverage);
  EXPECT_EQ(parsed.faults_total, 240u);
  EXPECT_EQ(parsed.faults_detected, 181u);
  EXPECT_EQ(parsed.patterns_used, 256u);
  EXPECT_EQ(parsed.patterns_minimized, 19u);
  expect_record_eq(record, parsed);

  // A plain record neither writes nor reads back coverage fields.
  const std::string plain = ResultCache::serialize(9, sample_record());
  EXPECT_EQ(plain.find("\"cov\""), std::string::npos);
  ASSERT_TRUE(ResultCache::parse(plain, key, parsed));
  EXPECT_FALSE(parsed.has_coverage);
}

TEST(ResultCache, InMemoryStoreAndCounters) {
  ResultCache cache;
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.store(1, sample_record());
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, sample_record());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, PersistsAcrossInstances) {
  const std::string dir = fresh_dir("persist");
  {
    ResultCache cache(dir);
    cache.store(42, sample_record());
  }
  ResultCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), 1u);
  const auto hit = reloaded.lookup(42);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, sample_record());
}

TEST(ResultCache, SkipsCorruptLines) {
  const std::string dir = fresh_dir("corrupt");
  {
    ResultCache cache(dir);
    cache.store(42, sample_record());
  }
  {
    std::ofstream out(dir + "/results.jsonl", std::ios::app);
    out << "garbage line\n";
    out << ResultCache::serialize(43, sample_record()).substr(0, 40) << "\n";
  }
  ResultCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), 1u);  // the two bad lines degrade to misses
  EXPECT_TRUE(reloaded.lookup(42).has_value());
  // ... and the degradation is counted, not silent (the CLI surfaces it).
  EXPECT_EQ(reloaded.corrupt_lines(), 2u);
}

TEST(ResultCacheMaintenance, InspectCountsKeysDuplicatesAndCorruption) {
  const std::string dir = fresh_dir("inspect");
  {
    ResultCache cache(dir);
    cache.store(1, sample_record());
    cache.store(2, sample_record());
    cache.store(1, sample_record());  // duplicate key, appended again
  }
  {
    std::ofstream out(dir + "/results.jsonl", std::ios::app);
    out << "not json\n";
  }
  const CacheFileStats stats = inspect_cache_file(dir);
  EXPECT_EQ(stats.total_lines, 4u);
  EXPECT_EQ(stats.corrupt_lines, 1u);
  EXPECT_EQ(stats.unique_keys, 2u);
  EXPECT_EQ(stats.duplicate_lines, 1u);
  // Histogram covers every unique key exactly once.
  std::size_t histogram_total = 0;
  for (const std::size_t count : stats.age_histogram)
    histogram_total += count;
  EXPECT_EQ(histogram_total, stats.unique_keys);
}

TEST(ResultCacheMaintenance, CompactKeepsLastWritePerKey) {
  const std::string dir = fresh_dir("compact");
  CacheRecord newer = sample_record();
  newer.evaluations = 999;  // distinguish last write from first
  {
    ResultCache cache(dir);
    cache.store(1, sample_record());
    cache.store(2, sample_record());
    cache.store(1, newer);
  }
  {
    std::ofstream out(dir + "/results.jsonl", std::ios::app);
    out << "truncated garbage\n";
  }

  const CacheCompaction compaction = compact_cache_file(dir);
  EXPECT_EQ(compaction.kept, 2u);
  EXPECT_EQ(compaction.dropped_duplicates, 1u);
  EXPECT_EQ(compaction.dropped_corrupt, 1u);

  // The compacted file reloads with identical lookup results: key 1 maps
  // to the LAST write.
  ResultCache reloaded(dir);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.corrupt_lines(), 0u);
  const auto hit = reloaded.lookup(1);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, newer);
  EXPECT_TRUE(reloaded.lookup(2).has_value());

  // Compacting an already-compact file is a no-op.
  const CacheCompaction again = compact_cache_file(dir);
  EXPECT_EQ(again.kept, 2u);
  EXPECT_EQ(again.dropped_duplicates, 0u);
  EXPECT_EQ(again.dropped_corrupt, 0u);
}

TEST(ResultCacheMaintenance, InspectThrowsWithoutCacheFile) {
  const std::string dir = fresh_dir("missing");
  EXPECT_THROW((void)inspect_cache_file(dir), Error);
}

TEST(ResultCacheResidency, EvictsLeastRecentlyUsedOverCap) {
  const std::string dir = fresh_dir("lru");
  ResultCache cache(dir);
  cache.set_max_resident(2);
  CacheRecord r1 = sample_record();
  r1.evaluations = 1;
  CacheRecord r2 = sample_record();
  r2.evaluations = 2;
  CacheRecord r3 = sample_record();
  r3.evaluations = 3;
  cache.store(1, r1);
  cache.store(2, r2);
  EXPECT_EQ(cache.resident_size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.store(3, r3);  // key 1 is now the LRU entry: evicted to disk only
  EXPECT_EQ(cache.resident_size(), 2u);
  EXPECT_EQ(cache.size(), 3u);  // still addressable
  EXPECT_EQ(cache.evictions(), 1u);

  // The evicted entry is still a HIT -- reloaded from disk, bit-exact.
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, r1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.disk_hits(), 1u);
  // Reloading re-admitted key 1, displacing the new LRU entry (key 2).
  EXPECT_EQ(cache.resident_size(), 2u);
  EXPECT_EQ(cache.evictions(), 2u);
  const auto hit2 = cache.lookup(2);
  ASSERT_TRUE(hit2.has_value());
  expect_record_eq(*hit2, r2);
  EXPECT_EQ(cache.disk_hits(), 2u);
}

TEST(ResultCacheResidency, LookupRefreshesRecency) {
  const std::string dir = fresh_dir("lru_touch");
  ResultCache cache(dir);
  cache.set_max_resident(2);
  cache.store(1, sample_record());
  cache.store(2, sample_record());
  // Touch key 1 so key 2 becomes the LRU entry...
  EXPECT_TRUE(cache.lookup(1).has_value());
  cache.store(3, sample_record());
  // ...then key 1 must still be resident (no disk hit to read it).
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.disk_hits(), 0u);
  // Key 2 was the one spilled.
  EXPECT_TRUE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.disk_hits(), 1u);
}

TEST(ResultCacheResidency, MemoryOnlyCacheNeverEvicts) {
  // Without a backing file the resident record is the only copy.
  ResultCache cache;
  cache.set_max_resident(1);
  cache.store(1, sample_record());
  cache.store(2, sample_record());
  EXPECT_EQ(cache.resident_size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.lookup(1).has_value());
}

TEST(ResultCacheResidency, CapAppliesToEntriesLoadedFromDisk) {
  const std::string dir = fresh_dir("lru_reload");
  {
    ResultCache cache(dir);
    for (std::uint64_t k = 1; k <= 5; ++k) cache.store(k, sample_record());
  }
  ResultCache reloaded(dir);
  reloaded.set_max_resident(2);
  EXPECT_EQ(reloaded.resident_size(), 2u);
  EXPECT_EQ(reloaded.size(), 5u);
  for (std::uint64_t k = 1; k <= 5; ++k)
    EXPECT_TRUE(reloaded.lookup(k).has_value()) << k;
  EXPECT_EQ(reloaded.misses(), 0u);
}

/// Drives the idle-eviction clock by hand: tests inject this as the
/// cache's clock so "idle for N ms" is exact, not sleep-based.
struct FakeClock {
  std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
  void advance(std::chrono::milliseconds d) { now += d; }
};

TEST(ResultCacheIdle, UntouchedEntriesLeaveResidencyAfterDeadline) {
  const std::string dir = fresh_dir("idle");
  ResultCache cache(dir);
  FakeClock clock;
  cache.set_clock_for_test([&] { return clock.now; });
  cache.set_idle_deadline(std::chrono::milliseconds(100));

  const CacheRecord r1 = sample_record();
  cache.store(1, r1);
  cache.store(2, sample_record());
  EXPECT_EQ(cache.resident_size(), 2u);

  // Not idle yet: nothing evicted on the next touch.
  clock.advance(std::chrono::milliseconds(50));
  cache.store(3, sample_record());
  EXPECT_EQ(cache.resident_size(), 3u);
  EXPECT_EQ(cache.idle_evictions(), 0u);

  // Keys 1 and 2 are now 150ms idle, key 3 only 100ms... but the
  // deadline is inclusive-expired at exactly 100ms of idleness, so all
  // three leave the resident map on the next cache operation.
  clock.advance(std::chrono::milliseconds(100));
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, r1);
  // The lookup itself reloaded key 1 from disk (a hit, not a miss) and
  // re-admitted it; keys 2 and 3 stay evicted until asked for.
  EXPECT_EQ(cache.disk_hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.idle_evictions(), 3u);
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_EQ(cache.resident_size(), 1u);
  EXPECT_EQ(cache.size(), 3u);  // still addressable
}

TEST(ResultCacheIdle, TouchedEntriesSurviveTheDeadline) {
  const std::string dir = fresh_dir("idle_touch");
  ResultCache cache(dir);
  FakeClock clock;
  cache.set_clock_for_test([&] { return clock.now; });
  cache.set_idle_deadline(std::chrono::milliseconds(100));

  cache.store(1, sample_record());
  cache.store(2, sample_record());

  // Keep key 1 warm with lookups while key 2 goes idle.
  clock.advance(std::chrono::milliseconds(60));
  EXPECT_TRUE(cache.lookup(1).has_value());
  clock.advance(std::chrono::milliseconds(60));
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.idle_evictions(), 1u);  // key 2: 120ms idle
  EXPECT_EQ(cache.resident_size(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u) << "key 1 must still be resident";

  // The evicted entry replays byte-identically from disk.
  const auto hit = cache.lookup(2);
  ASSERT_TRUE(hit.has_value());
  expect_record_eq(*hit, sample_record());
  EXPECT_EQ(cache.disk_hits(), 1u);
}

TEST(ResultCacheIdle, MemoryOnlyCacheNeverIdleEvicts) {
  // Without a backing file the resident record is the only copy, so the
  // idle deadline must not apply (evicting would lose results).
  ResultCache cache;
  FakeClock clock;
  cache.set_clock_for_test([&] { return clock.now; });
  cache.set_idle_deadline(std::chrono::milliseconds(1));
  cache.store(1, sample_record());
  clock.advance(std::chrono::hours(1));
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.idle_evictions(), 0u);
  EXPECT_EQ(cache.resident_size(), 1u);
}

TEST(ResultCacheIdle, ZeroDeadlineDisablesIdleEviction) {
  const std::string dir = fresh_dir("idle_off");
  ResultCache cache(dir);
  FakeClock clock;
  cache.set_clock_for_test([&] { return clock.now; });
  // Default: no deadline configured. Entries stay resident forever.
  cache.store(1, sample_record());
  clock.advance(std::chrono::hours(24));
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.idle_evictions(), 0u);
  EXPECT_EQ(cache.disk_hits(), 0u);
}

TEST(ResultCacheIdle, ComposesWithLruCap) {
  // Both policies at once: the cap bounds the live set, the deadline
  // clears it entirely when the client goes quiet.
  const std::string dir = fresh_dir("idle_lru");
  ResultCache cache(dir);
  FakeClock clock;
  cache.set_clock_for_test([&] { return clock.now; });
  cache.set_max_resident(2);
  cache.set_idle_deadline(std::chrono::milliseconds(100));

  for (std::uint64_t k = 1; k <= 3; ++k) cache.store(k, sample_record());
  EXPECT_EQ(cache.resident_size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);  // LRU spill of key 1
  EXPECT_EQ(cache.idle_evictions(), 0u);

  clock.advance(std::chrono::milliseconds(200));
  cache.store(4, sample_record());
  EXPECT_EQ(cache.idle_evictions(), 2u);  // keys 2 and 3 went idle
  EXPECT_EQ(cache.resident_size(), 1u);   // only the fresh key 4

  // Every key still replays byte-identically.
  for (std::uint64_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE(k);
    const auto hit = cache.lookup(k);
    ASSERT_TRUE(hit.has_value());
    expect_record_eq(*hit, sample_record());
  }
}

TEST(CacheKey, ContextFingerprintCoversCoverageOptions) {
  const elec::SensorSpec sensor;
  const part::CostWeights weights;
  const OptimizerConfig optimizers;
  const auto base =
      cache_context_fingerprint(1, 2, sensor, weights, 4, optimizers);

  // v3 rows must never replay into a coverage-graded engine: enabling
  // coverage (or changing any coverage knob) re-keys the context.
  CoverageOptions coverage;
  coverage.enabled = true;
  const auto graded = cache_context_fingerprint(1, 2, sensor, weights, 4,
                                                optimizers, coverage);
  EXPECT_NE(base, graded);
  EXPECT_EQ(graded, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                              optimizers, coverage));

  CoverageOptions model = coverage;
  model.fault_model = "bridges=40,shorts=10";
  EXPECT_NE(graded, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                              optimizers, model));
  CoverageOptions budget = coverage;
  budget.patterns = 128;
  EXPECT_NE(graded, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                              optimizers, budget));
  CoverageOptions minimized = coverage;
  minimized.minimize = true;
  EXPECT_NE(graded, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                              optimizers, minimized));
  CoverageOptions seeded = coverage;
  seeded.seed = 2;
  EXPECT_NE(graded, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                              optimizers, seeded));

  // Disabled coverage ignores the other knobs (they have no effect).
  CoverageOptions disabled;
  disabled.fault_model = "bridges";
  disabled.patterns = 9;
  EXPECT_EQ(base, cache_context_fingerprint(1, 2, sensor, weights, 4,
                                            optimizers, disabled));
}

TEST(CacheKey, SensitiveToEveryRunInput) {
  const std::uint64_t ctx_fp = 0x1234;
  const auto base = cache_key(ctx_fp, "evolution", 42, 0, nullptr);
  EXPECT_EQ(base, cache_key(ctx_fp, "evolution", 42, 0, nullptr));
  EXPECT_NE(base, cache_key(ctx_fp, "annealing", 42, 0, nullptr));
  EXPECT_NE(base, cache_key(ctx_fp, "evolution", 43, 0, nullptr));
  EXPECT_NE(base, cache_key(ctx_fp, "evolution", 42, 1000, nullptr));
  EXPECT_NE(base, cache_key(ctx_fp ^ 1, "evolution", 42, 0, nullptr));

  part::Partition start(4, 2);
  start.assign(2, 0);
  start.assign(3, 1);
  const auto with_start = cache_key(ctx_fp, "evolution", 42, 0, &start);
  EXPECT_NE(base, with_start);
  part::Partition other(4, 2);
  other.assign(2, 1);
  other.assign(3, 0);
  EXPECT_NE(with_start, cache_key(ctx_fp, "evolution", 42, 0, &other));
}

TEST(CacheKey, ContextFingerprintCoversConfig) {
  const elec::SensorSpec sensor;
  const part::CostWeights weights;
  const OptimizerConfig optimizers;
  const auto base =
      cache_context_fingerprint(1, 2, sensor, weights, 4, optimizers);
  EXPECT_EQ(base,
            cache_context_fingerprint(1, 2, sensor, weights, 4, optimizers));
  EXPECT_NE(base,
            cache_context_fingerprint(9, 2, sensor, weights, 4, optimizers));
  EXPECT_NE(base,
            cache_context_fingerprint(1, 9, sensor, weights, 4, optimizers));
  EXPECT_NE(base,
            cache_context_fingerprint(1, 2, sensor, weights, 5, optimizers));

  elec::SensorSpec sensor2 = sensor;
  sensor2.d_min = 12.0;
  EXPECT_NE(base,
            cache_context_fingerprint(1, 2, sensor2, weights, 4, optimizers));

  part::CostWeights weights2 = weights;
  weights2.a2 = 7.0;
  EXPECT_NE(base,
            cache_context_fingerprint(1, 2, sensor, weights2, 4, optimizers));

  OptimizerConfig optimizers2 = optimizers;
  optimizers2.es.max_generations += 1;
  EXPECT_NE(base,
            cache_context_fingerprint(1, 2, sensor, weights, 4, optimizers2));

  // The per-run seed is keyed by cache_key, not the context (the tuning
  // config has no seed field to hash).
  EXPECT_NE(cache_key(base, "evolution", 1, 0, nullptr),
            cache_key(base, "evolution", 999, 0, nullptr));
}

struct EngineFixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("cache", 150, 10, 5));
  lib::CellLibrary library = lib::default_library();

  FlowEngineConfig config(ResultCache* cache = nullptr) {
    FlowEngineConfig cfg;
    cfg.optimizers.es.mu = 3;
    cfg.optimizers.es.lambda = 3;
    cfg.optimizers.es.chi = 1;
    cfg.optimizers.es.max_generations = 8;
    cfg.optimizers.es.stall_generations = 4;
    cfg.cache = cache;
    return cfg;
  }
};

void expect_method_result_identical(const MethodResult& a,
                                    const MethodResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.cost),
            std::bit_cast<std::uint64_t>(b.fitness.cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fitness.violation),
            std::bit_cast<std::uint64_t>(b.fitness.violation));
  const auto ca = a.costs.as_array();
  const auto cb = b.costs.as_array();
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ca[i]),
              std::bit_cast<std::uint64_t>(cb[i]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensor_area),
            std::bit_cast<std::uint64_t>(b.sensor_area));
  EXPECT_EQ(a.module_count, b.module_count);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.modules.size(), b.modules.size());
  for (std::size_t m = 0; m < a.modules.size(); ++m) {
    EXPECT_EQ(a.modules[m].gates, b.modules[m].gates);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.modules[m].leakage_ua),
              std::bit_cast<std::uint64_t>(b.modules[m].leakage_ua));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.modules[m].area),
              std::bit_cast<std::uint64_t>(b.modules[m].area));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.modules[m].tau_ps),
              std::bit_cast<std::uint64_t>(b.modules[m].tau_ps));
  }
}

TEST(ResultCacheFlow, HitReturnsByteIdenticalMethodResult) {
  EngineFixture f;
  ResultCache cache;
  FlowEngine engine(f.nl, f.library, f.config(&cache));

  FlowEngine::RunOptions options;
  options.seed = 42;
  const auto cold = engine.run_method("evolution", options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  const auto warm = engine.run_method("evolution", options);
  EXPECT_EQ(cache.hits(), 1u);
  expect_method_result_identical(cold, warm);

  // A different seed is a different point: miss, then computed.
  options.seed = 43;
  const auto other = engine.run_method("evolution", options);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(other.method, cold.method);
}

TEST(ResultCacheFlow, DiskBackedSweepIsFullyCachedOnSecondRun) {
  EngineFixture f;
  const std::string dir = fresh_dir("sweep");
  const std::vector<std::string> specs{"evolution", "random", "standard"};

  std::vector<MethodResult> first;
  {
    ResultCache cache(dir);
    FlowEngine engine(f.nl, f.library, f.config(&cache));
    first = engine.run_methods(specs, 42);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), specs.size());
  }
  {
    ResultCache cache(dir);  // fresh process: entries come from disk
    FlowEngine engine(f.nl, f.library, f.config(&cache));
    const auto second = engine.run_methods(specs, 42);
    EXPECT_EQ(cache.hits(), specs.size());
    EXPECT_EQ(cache.misses(), 0u);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      SCOPED_TRACE(specs[i]);
      expect_method_result_identical(first[i], second[i]);
    }
  }
}

TEST(ResultCacheFlow, TracedRunsBypassTheCache) {
  EngineFixture f;
  ResultCache cache;
  FlowEngine engine(f.nl, f.library, f.config(&cache));
  FlowEngine::RunOptions options;
  options.seed = 42;
  options.record_trace = true;
  const auto traced = engine.run_method("evolution", options);
  EXPECT_FALSE(traced.trace.empty());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(ResultCacheFlow, ConfigChangeChangesEngineFingerprint) {
  EngineFixture f;
  FlowEngine a(f.nl, f.library, f.config());
  FlowEngine b(f.nl, f.library, f.config());
  EXPECT_EQ(a.context_fingerprint(), b.context_fingerprint());

  auto cfg = f.config();
  cfg.sensor.r_max_mv = 150.0;
  FlowEngine c(f.nl, f.library, cfg);
  EXPECT_NE(a.context_fingerprint(), c.context_fingerprint());
}

}  // namespace
}  // namespace iddq::core

#include "core/result_cache.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace iddq::core {

namespace {

bool read_size(const json::JsonValue& v, std::size_t& out) {
  std::uint64_t raw = 0;
  if (!v.as_u64(raw)) return false;
  out = static_cast<std::size_t>(raw);
  return true;
}

}  // namespace

std::string ResultCache::serialize(std::uint64_t key,
                                   const CacheRecord& record) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, key);
  json::JsonWriter costs(json::JsonWriter::Kind::Array);
  for (const double c : record.costs.as_array()) costs.element(c);
  json::JsonWriter line;
  line.field("key", std::string_view(hex))
      .field("method", record.method)
      .field("gates", std::uint64_t{record.gate_count})
      .field("violation", record.fitness.violation)
      .field("cost", record.fitness.cost)
      .field_raw("c", costs.str())
      .field("iters", std::uint64_t{record.iterations})
      .field("evals", std::uint64_t{record.evaluations});
  if (record.has_coverage) {
    json::JsonWriter cov(json::JsonWriter::Kind::Array);
    for (const std::size_t v :
         {record.faults_total, record.faults_detected, record.patterns_used,
          record.patterns_minimized})
      cov.element(std::uint64_t{v});
    line.field_raw("cov", cov.str());
  }
  json::JsonWriter modules(json::JsonWriter::Kind::Array);
  for (const auto& module : record.modules) {
    json::JsonWriter gates(json::JsonWriter::Kind::Array);
    for (const netlist::GateId g : module) gates.element(std::uint64_t{g});
    modules.element_raw(gates.str());
  }
  line.field_raw("modules", modules.str());
  return line.str();
}

bool ResultCache::parse(std::string_view line, std::uint64_t& key,
                        CacheRecord& out) {
  out = CacheRecord{};
  const auto doc = json::JsonValue::parse(line);
  if (!doc || !doc->is_object()) return false;
  bool have_key = false;
  bool have_modules = false;
  for (const auto& [field, value] : doc->members()) {
    if (field == "key") {
      if (!value.is_string()) return false;
      const std::string& hex = value.as_string();
      const auto [ptr, ec] =
          std::from_chars(hex.data(), hex.data() + hex.size(), key, 16);
      if (ec != std::errc{} || ptr != hex.data() + hex.size()) return false;
      have_key = true;
    } else if (field == "method") {
      if (!value.is_string()) return false;
      out.method = value.as_string();
    } else if (field == "gates") {
      if (!read_size(value, out.gate_count)) return false;
    } else if (field == "violation") {
      if (!value.as_double(out.fitness.violation)) return false;
    } else if (field == "cost") {
      if (!value.as_double(out.fitness.cost)) return false;
    } else if (field == "c") {
      double* const terms[] = {&out.costs.c1, &out.costs.c2, &out.costs.c3,
                               &out.costs.c4, &out.costs.c5};
      if (!value.is_array() || value.items().size() != std::size(terms))
        return false;
      for (std::size_t i = 0; i < std::size(terms); ++i)
        if (!value.items()[i].as_double(*terms[i])) return false;
    } else if (field == "iters") {
      if (!read_size(value, out.iterations)) return false;
    } else if (field == "evals") {
      if (!read_size(value, out.evaluations)) return false;
    } else if (field == "cov") {
      std::size_t* const terms[] = {&out.faults_total, &out.faults_detected,
                                    &out.patterns_used,
                                    &out.patterns_minimized};
      if (!value.is_array() || value.items().size() != std::size(terms))
        return false;
      for (std::size_t i = 0; i < std::size(terms); ++i)
        if (!read_size(value.items()[i], *terms[i])) return false;
      out.has_coverage = true;
    } else if (field == "modules") {
      if (!value.is_array()) return false;
      out.modules.clear();
      out.modules.reserve(value.items().size());
      for (const json::JsonValue& gates : value.items()) {
        if (!gates.is_array()) return false;
        auto& module = out.modules.emplace_back();
        module.reserve(gates.items().size());
        for (const json::JsonValue& gate : gates.items()) {
          // A gate id past GateId's range is a corrupt line, not a
          // different (truncated) gate.
          std::uint64_t id = 0;
          if (!gate.as_u64(id) ||
              id > std::numeric_limits<netlist::GateId>::max())
            return false;
          module.push_back(static_cast<netlist::GateId>(id));
        }
      }
      have_modules = true;
    } else {
      return false;  // unknown field: not one of our lines
    }
  }
  return have_key && have_modules && !out.method.empty() &&
         out.gate_count > 0 && !out.modules.empty();
}

void ResultCache::attach_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw Error("result cache: cannot create directory '" + dir +
                "': " + ec.message());

  const std::scoped_lock lock(mutex_);
  file_path_ = (fs::path(dir) / "results.jsonl").string();
  // A crashed compaction leaves its temp file behind; the real file is
  // still intact (the rename never happened), so just sweep up the tmp.
  fs::remove(fs::path(file_path_ + ".compact.tmp"), ec);
  std::ifstream in(file_path_);
  std::string line;
  std::streamoff offset = in ? static_cast<std::streamoff>(in.tellg()) : 0;
  while (std::getline(in, line)) {
    // +1 for the newline getline consumed (the file is append-only with
    // '\n' after every line, so the arithmetic is exact).
    const std::streamoff line_offset = offset;
    offset += static_cast<std::streamoff>(line.size()) + 1;
    if (line.empty()) continue;
    std::uint64_t key = 0;
    CacheRecord record;
    if (parse(line, key, record)) {
      entries_[key] = std::move(record);
      offsets_[key] = line_offset;
      touch(key);
    } else {
      // Unparseable lines (truncated writes, foreign content) are skipped:
      // the entry degrades to a miss and is rewritten on the next store.
      // The count is kept so callers can surface the degradation.
      ++corrupt_lines_;
    }
  }
  if (!in.is_open()) {
    // Create the file now so a cache dir attached read-only fails here,
    // not in the middle of a sweep.
    std::ofstream create(file_path_, std::ios::app);
    if (!create)
      throw Error("result cache: cannot create '" + file_path_ + "'");
  }
  evict();
}

void ResultCache::set_max_resident(std::size_t max_resident) {
  const std::scoped_lock lock(mutex_);
  max_resident_ = max_resident;
  evict();
}

void ResultCache::set_idle_deadline(std::chrono::milliseconds idle) {
  const std::scoped_lock lock(mutex_);
  idle_deadline_ = idle;
  evict();
}

void ResultCache::set_clock_for_test(
    std::function<std::chrono::steady_clock::time_point()> clock) {
  const std::scoped_lock lock(mutex_);
  clock_ = std::move(clock);
}

std::chrono::steady_clock::time_point ResultCache::now() const {
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

// Caller holds mutex_. Moves `key` to the front of the residency list and
// stamps it with the current time.
void ResultCache::touch(std::uint64_t key) const {
  const auto stamp = now();
  const auto [it, inserted] = lru_pos_.try_emplace(key);
  if (inserted) {
    lru_.push_front({key, stamp});
    it->second = lru_.begin();
    return;
  }
  it->second->touched = stamp;
  lru_.splice(lru_.begin(), lru_, it->second);
}

// Caller holds mutex_. Drops least-recently-used records while the resident
// set is over the cap or its oldest record has been idle past the deadline.
// lru_ is recency-ordered, so the walk from the back stops at the first
// survivor. Disk offsets keep the victims reloadable; a memory-only cache
// never evicts (the record IS the only copy).
void ResultCache::evict() const {
  if (file_path_.empty()) return;
  const bool idle_on = idle_deadline_.count() > 0;
  const auto cutoff = idle_on ? now() - idle_deadline_
                              : std::chrono::steady_clock::time_point{};
  while (!lru_.empty()) {
    const bool over_cap = max_resident_ > 0 && entries_.size() > max_resident_;
    const bool idle = idle_on && lru_.back().touched <= cutoff;
    if (!over_cap && !idle) break;
    const std::uint64_t victim = lru_.back().key;
    lru_.pop_back();
    lru_pos_.erase(victim);
    entries_.erase(victim);
    ++evictions_;
    if (!over_cap) ++idle_evictions_;
  }
}

std::optional<CacheRecord> ResultCache::lookup(std::uint64_t key) const {
  const std::scoped_lock lock(mutex_);
  evict();
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    touch(key);
    return it->second;
  }
  // Evicted but on disk: re-read exactly the last line written for the
  // key. serialize/parse round-trip bit-exactly, so the reloaded record
  // replays like the resident one did.
  const auto off = offsets_.find(key);
  if (off != offsets_.end()) {
    std::ifstream in(file_path_);
    std::string line;
    if (in) {
      in.seekg(off->second);
      if (std::getline(in, line)) {
        std::uint64_t parsed_key = 0;
        CacheRecord record;
        if (parse(line, parsed_key, record) && parsed_key == key) {
          ++hits_;
          ++disk_hits_;
          entries_[key] = record;
          touch(key);
          evict();
          return record;
        }
      }
    }
  }
  ++misses_;
  return std::nullopt;
}

void ResultCache::store(std::uint64_t key, const CacheRecord& record) {
  const std::scoped_lock lock(mutex_);
  evict();
  entries_[key] = record;
  touch(key);
  if (file_path_.empty()) return;
  // Fault-plan hook (docs/robustness.md): a scripted torn append writes a
  // strict prefix with no newline — the crash point between write() and
  // the terminator — and everything after it never reaches disk at all.
  // The offset map is left untouched for both, matching a real crash: no
  // survivor ever points at the garbage tail.
  auto fate = support::FaultPlan::AppendFate::kWrite;
  const support::FaultPlan* plan = support::FaultPlan::active();
  if (plan != nullptr) fate = plan->cache_append_fate();
  if (fate == support::FaultPlan::AppendFate::kDrop) return;
  std::ofstream out(file_path_, std::ios::app);
  if (!out)
    throw Error("result cache: cannot append to '" + file_path_ + "'");
  // The put position right after opening in append mode is implementation-
  // defined; an explicit seek-to-end pins the offset the line lands at.
  out.seekp(0, std::ios::end);
  if (fate == support::FaultPlan::AppendFate::kTear) {
    out << plan->torn_prefix(serialize(key, record));
    return;
  }
  offsets_[key] = static_cast<std::streamoff>(out.tellp());
  out << serialize(key, record) << '\n';
  evict();
}

std::size_t ResultCache::size() const {
  const std::scoped_lock lock(mutex_);
  // offsets_ covers every key ever written while disk-backed (a superset
  // of the resident keys); memory-only caches have no offsets.
  return file_path_.empty() ? entries_.size() : offsets_.size();
}

std::size_t ResultCache::resident_size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::hits() const {
  const std::scoped_lock lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::disk_hits() const {
  const std::scoped_lock lock(mutex_);
  return disk_hits_;
}

std::uint64_t ResultCache::evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

std::uint64_t ResultCache::idle_evictions() const {
  const std::scoped_lock lock(mutex_);
  return idle_evictions_;
}

std::uint64_t ResultCache::misses() const {
  const std::scoped_lock lock(mutex_);
  return misses_;
}

std::size_t ResultCache::corrupt_lines() const {
  const std::scoped_lock lock(mutex_);
  return corrupt_lines_;
}

namespace {

std::string cache_file_of(const std::string& dir) {
  return (std::filesystem::path(dir) / "results.jsonl").string();
}

/// One pass over a results.jsonl, shared by inspect and compact: every
/// non-empty line in file order, and the last write of each parsed key
/// (the lookup semantics of attach_dir).
struct CacheFileScan {
  struct Line {
    std::uint64_t key = 0;
    bool parsed = false;
    std::string raw;
  };
  std::vector<Line> lines;
  std::unordered_map<std::uint64_t, std::size_t> last_write;  // key -> line
  std::size_t corrupt = 0;
  std::size_t shadowed = 0;  // parsed lines a later write of the key replaces

  [[nodiscard]] bool survives(std::size_t i) const {
    return lines[i].parsed && last_write.at(lines[i].key) == i;
  }
};

CacheFileScan scan_cache_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("result cache: cannot open '" + path + "'");
  CacheFileScan scan;
  std::string raw;
  while (std::getline(in, raw)) {
    if (raw.empty()) continue;
    CacheFileScan::Line line;
    CacheRecord record;
    line.parsed = ResultCache::parse(raw, line.key, record);
    line.raw = std::move(raw);
    if (!line.parsed) {
      ++scan.corrupt;
    } else if (!scan.last_write.insert_or_assign(line.key, scan.lines.size())
                    .second) {
      ++scan.shadowed;
    }
    scan.lines.push_back(std::move(line));
  }
  return scan;
}

}  // namespace

CacheFileStats inspect_cache_file(const std::string& dir) {
  const CacheFileScan scan = scan_cache_file(cache_file_of(dir));
  CacheFileStats stats;
  stats.total_lines = scan.lines.size();
  stats.corrupt_lines = scan.corrupt;
  stats.duplicate_lines = scan.shadowed;
  stats.unique_keys = scan.last_write.size();
  for (const auto& [key, index] : scan.last_write) {
    (void)key;
    // Age 1 = the file's last line. Bucket by floor(log2(age)).
    const std::size_t age = scan.lines.size() - index;
    std::size_t bucket = 0;
    while ((std::size_t{2} << bucket) <= age) ++bucket;
    if (stats.age_histogram.size() <= bucket)
      stats.age_histogram.resize(bucket + 1, 0);
    ++stats.age_histogram[bucket];
  }
  return stats;
}

CacheCompaction compact_cache_file(const std::string& dir) {
  const std::string path = cache_file_of(dir);
  const CacheFileScan scan = scan_cache_file(path);
  CacheCompaction result;
  result.dropped_corrupt = scan.corrupt;
  result.dropped_duplicates = scan.shadowed;

  // Keep the surviving lines in their original (last-write) file order so
  // a compacted file replays identically, then swap in atomically.
  const std::string tmp_path = path + ".compact.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out)
      throw Error("result cache: cannot write '" + tmp_path + "'");
    for (std::size_t i = 0; i < scan.lines.size(); ++i) {
      if (!scan.survives(i)) continue;
      out << scan.lines[i].raw << '\n';
      ++result.kept;
    }
    if (!out)
      throw Error("result cache: write to '" + tmp_path + "' failed");
  }
  detail::replace_file(tmp_path, path);
  return result;
}

namespace detail {

void replace_file(const std::string& from, const std::string& to,
                  bool force_copy) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!force_copy) {
    fs::rename(from, to, ec);
    if (!ec) return;
  }
  // rename() cannot cross filesystems (EXDEV: cache dir on one mount,
  // tmp on another) — fall back to copy+remove. Not atomic, but the copy
  // lands fully before the source is dropped, and a torn copy is exactly
  // the corrupt-tail case attach_dir already recovers from.
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec)
    throw Error("result cache: cannot replace '" + to + "': " + ec.message());
  fs::remove(from, ec);  // best-effort; a stale tmp is swept on next open
}

}  // namespace detail

std::uint64_t cache_context_fingerprint(std::uint64_t netlist_fp,
                                        std::uint64_t library_fp,
                                        const elec::SensorSpec& sensor,
                                        const part::CostWeights& weights,
                                        std::uint32_t rho,
                                        const OptimizerConfig& optimizers,
                                        const CoverageOptions& coverage) {
  Hash64 h;
  // Format/semantics version: bump to flush every old key at once.
  // v2: tabu candidates score on pristine evaluator copies (no
  // move+revert floating-point residue), so v1 tabu rows no longer
  // match a fresh computation.
  // v3: the greedy refiner scores trials with the copy-free probe and no
  // longer replays the move+revert residue of rejected trials (the
  // residue-free trajectory is what lets its candidate scan parallelize
  // byte-identically), so v2 greedy-family rows no longer match a fresh
  // computation. Evolution/standard/annealing/tabu trajectories are
  // unchanged — only the salt retires their old keys.
  // v4: records may carry measured-coverage counters ("cov") and the
  // fingerprint mixes the CoverageOptions below. v3 files would parse,
  // but a coverage-bearing row must never replay from an entry that was
  // stored without coverage — the salt retires every v3 key wholesale.
  h.mix_string("iddq-result-cache-v4");
  h.mix_u64(netlist_fp);
  h.mix_u64(library_fp);

  h.mix_double(sensor.r_max_mv);
  h.mix_double(sensor.a0_area);
  h.mix_double(sensor.a1_area_kohm);
  h.mix_double(sensor.rs_cap_kohm);
  h.mix_double(sensor.c_sensor_ff);
  h.mix_double(sensor.t_detect_ps);
  h.mix_double(sensor.iddq_th_ua);
  h.mix_double(sensor.d_min);

  h.mix_double(weights.a1);
  h.mix_double(weights.a2);
  h.mix_double(weights.a3);
  h.mix_double(weights.a4);
  h.mix_double(weights.a5);
  h.mix_u64(rho);

  // Optimizer tuning knobs (the per-run seed is a cache_key input).
  const EsParams& es = optimizers.es;
  h.mix_size(es.mu);
  h.mix_size(es.lambda);
  h.mix_size(es.chi);
  h.mix_size(es.kappa);
  h.mix_u64(es.m0);
  h.mix_u64(es.m_max);
  h.mix_double(es.epsilon);
  h.mix_size(es.max_generations);
  h.mix_size(es.stall_generations);

  const SaParams& sa = optimizers.sa;
  h.mix_size(sa.steps);
  h.mix_double(sa.initial_acceptance);
  h.mix_double(sa.cooling);
  h.mix_size(sa.stage_length);
  h.mix_double(sa.violation_penalty);

  const TabuParams& tabu = optimizers.tabu;
  h.mix_size(tabu.iterations);
  h.mix_size(tabu.candidates);
  h.mix_size(tabu.tenure);
  h.mix_size(tabu.stall_iterations);
  h.mix_double(tabu.violation_penalty);

  h.mix_size(optimizers.force_passes);
  h.mix_size(optimizers.random_samples);
  h.mix_size(optimizers.greedy_max_evaluations);

  // Coverage grading config: a coverage-enabled engine must never share
  // keys with a coverage-off engine (or with one grading under a different
  // fault model / suite), because the stored records differ.
  h.mix_byte(coverage.enabled ? 1 : 0);
  if (coverage.enabled) {
    h.mix_string(coverage.fault_model);
    h.mix_size(coverage.patterns);
    h.mix_byte(coverage.minimize ? 1 : 0);
    h.mix_u64(coverage.seed);
  }
  return h.value();
}

std::uint64_t cache_key(std::uint64_t context_fp,
                        std::string_view method_spec, std::uint64_t seed,
                        std::size_t max_evaluations,
                        const part::Partition* start) {
  Hash64 h;
  h.mix_u64(context_fp);
  h.mix_string(method_spec);
  h.mix_u64(seed);
  h.mix_size(max_evaluations);
  if (start == nullptr) {
    h.mix_byte(0);
  } else {
    h.mix_byte(1);
    h.mix_size(start->gate_count());
    h.mix_size(start->module_count());
    for (std::uint32_t m = 0; m < start->module_count(); ++m) {
      const auto gates = start->module(m);
      h.mix_size(gates.size());
      for (const netlist::GateId g : gates) h.mix_u64(g);
    }
  }
  return h.value();
}

}  // namespace iddq::core

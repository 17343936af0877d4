// perfbench_driver — the in-process half of the repository benchmark.
//
// perfbench/run.py builds this binary next to iddqsyn_server and
// iddqsyn_cluster and calls it in three modes. Every mode prints one JSON
// document on stdout; run.py turns it into metrics and checks the rows.
//
//   setup --tier T --circuits a,b
//       Loads the circuits and the cell library, then exits (run.py times
//       the whole process: start plus circuit generation).
//   sweep --tier T --circuits a,b --threads N --seconds S [--trace]
//       Runs one Table-1 row (evolution, then standard at the evolution
//       module sizes) per circuit through core::FlowEngine, cycling over
//       the circuits in the given order until the time budget is used.
//       With --trace: one untraced sweep, one traced sweep that makes the
//       same calls layer by layer, and untraced sweeps at the other
//       thread counts of 1, 2 and 4 as far as the budget allows.
//   serve --requests FILE --generations G --workers N [--trace --cache-dir D]
//       The serve_mixed rows computed in process through core::JobService.
//       Without --trace every distinct (circuit, seed) runs once, uncached:
//       the reference the served rows are checked against. With --trace the
//       request list is replayed one request at a time through a cached
//       JobService, its keys through a bare ResultCache, and the warm
//       circuits through the traced engine pipeline.
//
// Spans are recorded here, around calls into each layer's public API;
// nothing inside src/ is instrumented.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/flow_engine.hpp"
#include "core/job_service.hpp"
#include "core/optimizer_registry.hpp"
#include "core/result_cache.hpp"
#include "core/size_planner.hpp"
#include "electrical/settling.hpp"
#include "library/cell_library.hpp"
#include "netlist/circuit_loader.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace iddq;
using Clock = std::chrono::steady_clock;
using json::JsonWriter;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- tracing ---

/// In-memory span log: name, start, end, parent span and one id per job,
/// written out once when the mode ends. A "standalone" span re-times a
/// piece of work outside the job's own path (a second DistanceOracle, a
/// second settling calibration); it is not part of the job's wall time.
class Tracer {
 public:
  std::size_t open(std::string name, std::uint64_t job, long parent = -1,
                   bool standalone = false) {
    spans_.push_back(
        {std::move(name), job, parent, standalone, since_origin(), 0.0});
    return spans_.size() - 1;
  }
  void close(std::size_t span) { spans_[span].end_us = since_origin(); }

  [[nodiscard]] std::string json() {
    JsonWriter out(JsonWriter::Kind::Array);
    for (const Span& s : spans_) {
      JsonWriter w;
      w.field("name", s.name)
          .field("job", s.job)
          .field("parent", static_cast<double>(s.parent))
          .field("standalone", s.standalone)
          .field("start_us", s.start_us)
          .field("end_us", s.end_us);
      out.element_raw(w.str());
    }
    return out.str();
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t job;
    long parent;
    bool standalone;
    double start_us;
    double end_us;
  };
  [[nodiscard]] double since_origin() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, std::uint64_t job, long parent,
         bool standalone = false)
      : tracer_(tracer),
        span_(tracer.open(std::move(name), job, parent, standalone)) {}
  ~Scoped() { tracer_.close(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] long id() const { return static_cast<long>(span_); }

 private:
  Tracer& tracer_;
  std::size_t span_;
};

// -------------------------------------------------------------- the row ---

struct Circuit {
  std::string name;
  netlist::Netlist nl;
};

struct RowSeeds {
  std::uint64_t evolution = 0;
  std::uint64_t standard = 0;
};

struct Row {
  core::MethodResult evolution;
  core::MethodResult standard;
};

/// One Table-1 row exactly as bench_table1 and JobService produce it.
Row run_row(const netlist::Netlist& nl, const lib::CellLibrary& library,
            const core::FlowEngineConfig& config, RowSeeds seeds) {
  core::FlowEngine engine(nl, library, config);
  Row row;
  core::FlowEngine::RunOptions evolution;
  evolution.seed = seeds.evolution;
  row.evolution = engine.run_method("evolution", evolution);
  core::FlowEngine::RunOptions standard;
  standard.seed = seeds.standard;
  standard.start = &row.evolution.partition;
  row.standard = engine.run_method("standard", standard);
  return row;
}

/// FlowEngine::run_method for an uncached run, split into its layer calls.
core::MethodResult traced_method(const part::EvalContext& ctx,
                                 const core::SizePlan& plan,
                                 const core::FlowEngineConfig& config,
                                 std::string_view spec, std::uint64_t seed,
                                 const part::Partition* start, Tracer& tracer,
                                 std::uint64_t job, long parent) {
  const auto optimizer =
      core::OptimizerRegistry::global().make(spec, config.optimizers);
  core::OptimizerRequest request;
  request.ctx = &ctx;
  if (start != nullptr) request.start = *start;
  request.module_count = plan.module_count;
  request.seed = seed;
  request.pool = config.pool;
  core::OptimizerOutcome outcome;
  {
    Scoped span(tracer, "core." + std::string(spec), job, parent);
    outcome = optimizer->run(request);
  }
  core::MethodResult result;
  {
    Scoped span(tracer, "partition.evaluate", job, parent);
    result = core::evaluate_method(ctx, std::move(outcome.method),
                                   outcome.partition);
  }
  result.fitness = outcome.fitness;
  result.costs = outcome.costs;
  result.delay_overhead = outcome.costs.c2;
  result.test_overhead = outcome.costs.c4;
  result.iterations = outcome.iterations;
  result.evaluations = outcome.evaluations;
  return result;
}

/// The traced row: the same calls as run_row, each under its layer's span,
/// followed by standalone re-timings of the two EvalContext members whose
/// construction the context span cannot separate.
/// Work counted beside the traced rows.
struct TraceCounts {
  std::uint64_t oracle_entries = 0;
  std::uint64_t evolution_evals = 0;
};

Row traced_row(const netlist::Netlist& nl, const lib::CellLibrary& library,
               const core::FlowEngineConfig& config, RowSeeds seeds,
               Tracer& tracer, std::uint64_t job, TraceCounts& counts) {
  Row row;
  {
    Scoped job_span(tracer, "job", job, -1);
    std::optional<part::EvalContext> ctx;
    {
      Scoped span(tracer, "partition.context", job, job_span.id());
      ctx.emplace(nl, library, config.sensor, config.weights, config.rho);
    }
    core::SizePlan plan;
    {
      Scoped span(tracer, "core.size_plan", job, job_span.id());
      plan = core::plan_module_size(*ctx);
    }
    row.evolution = traced_method(*ctx, plan, config, "evolution",
                                  seeds.evolution, nullptr, tracer, job,
                                  job_span.id());
    row.standard = traced_method(*ctx, plan, config, "standard",
                                 seeds.standard, &row.evolution.partition,
                                 tracer, job, job_span.id());
  }
  {
    Scoped span(tracer, "netlist.oracle", job, -1, true);
    counts.oracle_entries +=
        netlist::DistanceOracle(nl, config.rho).entry_count();
  }
  {
    Scoped span(tracer, "electrical.settling_calibrate", job, -1, true);
    (void)elec::SettlingModel::calibrate(config.sensor.t_detect_ps);
  }
  counts.evolution_evals += row.evolution.evaluations;
  return row;
}

/// The Table-1 JSON row of bench_table1 --json (BENCH_*.json schema,
/// without "seconds").
std::string table_row_json(const Circuit& c, const Row& row) {
  const double overhead_pct =
      row.evolution.sensor_area > 0.0
          ? (row.standard.sensor_area / row.evolution.sensor_area - 1.0) *
                100.0
          : 0.0;
  JsonWriter w;
  w.field("circuit", c.name)
      .field("gates", static_cast<std::uint64_t>(c.nl.logic_gate_count()))
      .field("modules",
             static_cast<std::uint64_t>(row.evolution.module_count))
      .field("sensor_area_evolution", row.evolution.sensor_area)
      .field("sensor_area_standard", row.standard.sensor_area)
      .field("std_area_overhead_pct", overhead_pct)
      .field("delay_overhead_evolution", row.evolution.delay_overhead)
      .field("delay_overhead_standard", row.standard.delay_overhead)
      .field("test_overhead_evolution", row.evolution.test_overhead)
      .field("test_overhead_standard", row.standard.test_overhead)
      .field("cost_evolution", row.evolution.fitness.cost)
      .field("evaluations",
             static_cast<std::uint64_t>(row.evolution.evaluations));
  return w.str();
}

/// The fields of a protocol `row` event (docs/server.md) for one method.
std::string method_row_json(std::size_t index, const core::MethodResult& r) {
  JsonWriter costs(JsonWriter::Kind::Array);
  for (const double c : r.costs.as_array()) costs.element(c);
  JsonWriter w;
  w.field("index", static_cast<std::uint64_t>(index))
      .field("method", r.method)
      .field("modules", static_cast<std::uint64_t>(r.module_count))
      .field("violation", r.fitness.violation)
      .field("cost", r.fitness.cost)
      .field_raw("c", costs.str())
      .field("sensor_area", r.sensor_area)
      .field("delay_overhead", r.delay_overhead)
      .field("test_overhead", r.test_overhead)
      .field("iterations", static_cast<std::uint64_t>(r.iterations))
      .field("evaluations", static_cast<std::uint64_t>(r.evaluations))
      .field("feasible", r.fitness.feasible());
  return w.str();
}

std::string method_rows_json(const Row& row) {
  JsonWriter rows(JsonWriter::Kind::Array);
  rows.element_raw(method_row_json(0, row.evolution));
  rows.element_raw(method_row_json(1, row.standard));
  return rows.str();
}

// ------------------------------------------------------------- options ---

struct Options {
  std::string mode;
  std::string tier = "table1";
  std::vector<std::string> circuits;
  std::size_t threads = 2;
  double seconds = 1.0;
  bool trace = false;
  std::string requests;
  std::size_t generations = 20;
  std::size_t workers = 1;
  std::string cache_dir;
};

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

Options parse(int argc, char** argv) {
  require(argc >= 2, "usage: perfbench_driver setup|sweep|serve [options]");
  Options o;
  o.mode = argv[1];
  require(o.mode == "setup" || o.mode == "sweep" || o.mode == "serve",
          "unknown mode '" + o.mode + "'");
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      o.trace = true;
      continue;
    }
    require(i + 1 < argc, arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--tier") {
      require(value == "table1" || value == "big", "--tier: table1 or big");
      o.tier = value;
    } else if (arg == "--circuits") {
      o.circuits = split_commas(value);
    } else if (arg == "--threads") {
      o.threads = std::stoul(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--requests") {
      o.requests = value;
    } else if (arg == "--generations") {
      o.generations = std::stoul(value);
    } else if (arg == "--workers") {
      o.workers = std::stoul(value);
    } else if (arg == "--cache-dir") {
      o.cache_dir = value;
    } else {
      throw Error("unknown option '" + arg + "'");
    }
  }
  require(o.threads >= 1 && o.workers >= 1 && o.generations >= 1,
          "--threads, --workers and --generations must be >= 1");
  return o;
}

/// Table-1 circuits are make_iscas_like stand-ins; everything else is a
/// loader builtin (as in bench_table1 --tier big and the server).
netlist::Netlist load(const std::string& tier, const std::string& name) {
  return tier == "table1" ? netlist::gen::make_iscas_like(name)
                          : netlist::load_circuit(name);
}

std::vector<Circuit> load_all(const Options& o, Tracer* tracer,
                              std::vector<double>& load_ms) {
  std::vector<Circuit> circuits;
  for (std::size_t i = 0; i < o.circuits.size(); ++i) {
    const auto t0 = Clock::now();
    std::optional<Scoped> span;
    if (tracer != nullptr) span.emplace(*tracer, "netlist.load", i + 1, -1);
    circuits.push_back({o.circuits[i], load(o.tier, o.circuits[i])});
    load_ms.push_back(ms_between(t0, Clock::now()));
  }
  return circuits;
}

/// The bench_table1 engine configuration: the paper's ES parameters
/// (IDDQSYN_BENCH_FAST=1 in the environment selects the FAST budget).
core::FlowEngineConfig paper_config(support::ExecutorPool& pool) {
  const auto cfg = bench::paper_flow_config();
  core::FlowEngineConfig config;
  config.sensor = cfg.sensor;
  config.weights = cfg.weights;
  config.rho = cfg.rho;
  config.optimizers.es = cfg.es;
  config.pool = &pool;
  return config;
}

std::string doubles_json(const std::vector<double>& values) {
  JsonWriter out(JsonWriter::Kind::Array);
  for (const double v : values) out.element(v);
  return out.str();
}

// --------------------------------------------------------------- sweep ---

int run_sweep(const Options& o) {
  const auto library = lib::default_library();
  Tracer tracer;
  std::vector<double> load_ms;
  const auto circuits = load_all(o, o.trace ? &tracer : nullptr, load_ms);
  require(!circuits.empty(), "sweep: --circuits is empty");
  const std::uint64_t seed = bench::paper_flow_config().es.seed;
  const RowSeeds seeds{seed, seed};

  struct Timed {
    std::string row;
    double seconds;
  };
  const auto time_row = [&](std::size_t i,
                            const core::FlowEngineConfig& config) {
    const auto t0 = Clock::now();
    const Row row = run_row(circuits[i].nl, library, config, seeds);
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    return Timed{table_row_json(circuits[i], row), s};
  };
  const auto rows_json = [&](const std::vector<Timed>& rows) {
    JsonWriter out(JsonWriter::Kind::Array);
    for (const Timed& t : rows) {
      std::string row = t.row;
      row.pop_back();  // reopen the object to append the timing
      JsonWriter seconds;
      seconds.field("seconds", t.seconds);
      out.element_raw(row + "," + seconds.str().substr(1));
    }
    return out.str();
  };

  support::ExecutorPool pool(o.threads);
  const auto config = paper_config(pool);
  std::vector<Timed> rows;
  JsonWriter doc;
  if (!o.trace) {
    // Whole sweeps first; then keep cycling while the next row is
    // projected (from its last time) to end inside the budget.
    const auto start = Clock::now();
    std::vector<double> last(circuits.size(), 0.0);
    for (std::size_t k = 0;; ++k) {
      const std::size_t i = k % circuits.size();
      const double elapsed = ms_between(start, Clock::now()) / 1000.0;
      if (k >= circuits.size() && elapsed + last[i] > o.seconds) break;
      rows.push_back(time_row(i, config));
      last[i] = rows.back().seconds;
    }
    doc.field_raw("rows", rows_json(rows));
  } else {
    const auto start = Clock::now();
    double sweep_s = 0.0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      rows.push_back(time_row(i, config));
      sweep_s += rows.back().seconds;
    }
    doc.field_raw("rows", rows_json(rows));

    TraceCounts counts;
    JsonWriter traced(JsonWriter::Kind::Array);
    std::vector<std::string> mismatches;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const Row row = traced_row(circuits[i].nl, library, config, seeds,
                                 tracer, i + 1, counts);
      const std::string json = table_row_json(circuits[i], row);
      if (json != rows[i].row)
        mismatches.push_back("traced row differs: " + circuits[i].name);
      traced.element_raw(json);
    }
    // Thread scaling over 1, 2 and 4 threads besides --threads (not a
    // gate on time; rows must still match). A thread count whose sweep is
    // projected (at 1.5x the --threads sweep) to end past the --seconds
    // budget is skipped, which keeps a traced run on a slow host inside
    // its time limit.
    JsonWriter scaling(JsonWriter::Kind::Array);
    JsonWriter skipped(JsonWriter::Kind::Array);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (threads == o.threads) continue;
      const double elapsed = ms_between(start, Clock::now()) / 1000.0;
      if (elapsed + 1.5 * sweep_s > o.seconds) {
        skipped.element(static_cast<std::uint64_t>(threads));
        continue;
      }
      support::ExecutorPool scaled_pool(threads);
      const auto scaled = paper_config(scaled_pool);
      std::vector<Timed> scaled_rows;
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        scaled_rows.push_back(time_row(i, scaled));
        if (scaled_rows.back().row != rows[i].row)
          mismatches.push_back("row differs at " + std::to_string(threads) +
                               " threads: " + circuits[i].name);
      }
      JsonWriter entry;
      entry.field("threads", static_cast<std::uint64_t>(threads))
          .field_raw("rows", rows_json(scaled_rows));
      scaling.element_raw(entry.str());
    }
    JsonWriter bad(JsonWriter::Kind::Array);
    for (const auto& m : mismatches) bad.element(m);
    doc.field_raw("traced_rows", traced.str())
        .field_raw("scaling", scaling.str())
        .field_raw("scaling_skipped", skipped.str())
        .field("oracle_entries", counts.oracle_entries)
        .field("evolution_evals", counts.evolution_evals)
        .field_raw("mismatches", bad.str())
        .field_raw("spans", tracer.json());
  }
  doc.field_raw("load_ms", doubles_json(load_ms))
      .field("peak_rss_mb", peak_rss_mb());
  std::cout << doc.str() << "\n";
  return 0;
}

// --------------------------------------------------------------- serve ---

struct Request {
  std::string kind;  // "warm" or "req"
  std::string id;
  std::string circuit;
  std::uint64_t seed = 0;
};

std::vector<Request> read_requests(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot read " + path);
  std::vector<Request> out;
  for (Request r; in >> r.kind >> r.id >> r.circuit >> r.seed;)
    out.push_back(r);
  require(in.eof(), "malformed request file " + path);
  return out;
}

/// The seeds a single-circuit protocol submit at `seed` runs with:
/// shard 0 at mix_seed(seed, 0), method m at mix_seed(shard, m).
std::uint64_t shard_seed(std::uint64_t seed) { return Rng::mix_seed(seed, 0); }

core::JobSpec job_spec(const Request& r) {
  core::JobSpec spec;
  spec.circuit = r.circuit;
  spec.base_seed = shard_seed(r.seed);
  return spec;
}

core::CacheRecord record_of(const core::MethodResult& r) {
  core::CacheRecord record;
  record.method = r.method;
  record.gate_count = r.partition.gate_count();
  for (std::uint32_t m = 0; m < r.partition.module_count(); ++m) {
    const auto gates = r.partition.module(m);
    record.modules.emplace_back(gates.begin(), gates.end());
  }
  record.fitness = r.fitness;
  record.costs = r.costs;
  record.iterations = r.iterations;
  record.evaluations = r.evaluations;
  return record;
}

/// Reference mode: every distinct (circuit, seed) once, uncached, on an
/// N-worker JobService configured like the backends.
int run_serve_reference(const Options& o, const std::vector<Request>& reqs,
                        const lib::CellLibrary& library,
                        const core::FlowEngineConfig& flow) {
  core::JobServiceConfig config;
  config.workers = o.workers;
  config.flow = flow;
  core::JobService service(library, config);
  std::map<std::pair<std::string, std::uint64_t>, core::JobHandle> jobs;
  for (const Request& r : reqs) {
    const auto key = std::make_pair(r.circuit, r.seed);
    if (jobs.count(key) == 0) {
      core::JobSpec spec = job_spec(r);
      spec.cache_policy = core::JobSpec::CachePolicy::bypass;
      jobs.emplace(key, service.submit(std::move(spec)));
    }
  }
  JsonWriter refs(JsonWriter::Kind::Array);
  for (const auto& [key, handle] : jobs) {
    const core::JobResult& result = handle.wait();
    require(result.ok() && result.rows.size() == 2,
            "reference job failed: " + key.first + ": " + result.error);
    JsonWriter entry;
    entry.field("circuit", key.first)
        .field("seed", key.second)
        .field_raw("rows", method_rows_json({result.rows[0], result.rows[1]}));
    refs.element_raw(entry.str());
  }
  JsonWriter doc;
  doc.field_raw("references", refs.str());
  std::cout << doc.str() << "\n";
  return 0;
}

int run_serve(const Options& o) {
  const auto reqs = read_requests(o.requests);
  const auto library = lib::default_library();
  // The backends' configuration: server defaults, ES generation cap.
  support::ExecutorPool pool(1);
  core::FlowEngineConfig flow;
  flow.optimizers.es.max_generations = o.generations;
  flow.pool = &pool;
  if (!o.trace) return run_serve_reference(o, reqs, library, flow);

  require(!o.cache_dir.empty(), "serve --trace needs --cache-dir");
  std::filesystem::remove_all(o.cache_dir);
  Tracer tracer;
  std::vector<std::string> mismatches;

  // 1. Engine layers: the traced pipeline over every warm key.
  std::map<std::string, Circuit> circuits;
  std::vector<double> load_ms;
  for (const Request& r : reqs) {
    if (circuits.count(r.circuit) != 0) continue;
    const auto t0 = Clock::now();
    {
      Scoped span(tracer, "netlist.load", 0, -1);
      circuits.emplace(r.circuit,
                       Circuit{r.circuit, netlist::load_circuit(r.circuit)});
    }
    load_ms.push_back(ms_between(t0, Clock::now()));
  }
  TraceCounts counts;
  std::uint64_t job = 0;
  std::vector<double> untraced_ms;
  std::vector<std::pair<Request, Row>> warm_rows;
  for (const Request& r : reqs) {
    if (r.kind != "warm") continue;
    const Circuit& c = circuits.at(r.circuit);
    const std::uint64_t base = shard_seed(r.seed);
    const RowSeeds seeds{Rng::mix_seed(base, 0), Rng::mix_seed(base, 1)};
    const auto t0 = Clock::now();
    const Row plain = run_row(c.nl, library, flow, seeds);
    untraced_ms.push_back(ms_between(t0, Clock::now()));
    const Row traced =
        traced_row(c.nl, library, flow, seeds, tracer, ++job, counts);
    if (method_rows_json(plain) != method_rows_json(traced))
      mismatches.push_back("traced row differs: " + r.circuit + " " +
                           std::to_string(r.seed));
    warm_rows.emplace_back(r, plain);
  }

  // 2. JobService: warm the cache, then one request at a time.
  core::ResultCache cache(o.cache_dir + "/service");
  core::JobServiceConfig config;
  config.workers = o.workers;
  config.flow = flow;
  config.flow.cache = &cache;
  core::JobService service(library, config);
  for (const Request& r : reqs)
    if (r.kind == "warm") (void)service.submit(job_spec(r)).wait();
  struct Stamps {
    std::mutex mutex;
    Clock::time_point running;
    Clock::time_point first_row;
    bool has_row = false;
  };
  JsonWriter served(JsonWriter::Kind::Array);
  std::map<std::string, Row> rows_by_id;
  for (const Request& r : reqs) {
    if (r.kind != "req") continue;
    Stamps stamps;
    const auto sink = [&stamps](const core::JobEvent& e) {
      const auto now = Clock::now();
      const std::scoped_lock lock(stamps.mutex);
      if (e.kind == core::JobEvent::Kind::running) stamps.running = now;
      if (e.kind == core::JobEvent::Kind::row && !stamps.has_row) {
        stamps.first_row = now;
        stamps.has_row = true;
      }
    };
    const auto t0 = Clock::now();
    const core::JobHandle handle = service.submit(job_spec(r), sink);
    const core::JobResult& result = handle.wait();
    const auto t1 = Clock::now();
    const std::scoped_lock lock(stamps.mutex);
    if (!result.ok() || result.rows.size() != 2 || !stamps.has_row) {
      mismatches.push_back("in-process job failed: " + r.id);
      continue;
    }
    const Row row{result.rows[0], result.rows[1]};
    rows_by_id.emplace(r.id, row);
    JsonWriter entry;
    entry.field("id", r.id)
        .field("total_ms", ms_between(t0, t1))
        .field("queue_ms", ms_between(t0, stamps.running))
        .field("run_ms", ms_between(stamps.running, t1))
        .field("first_row_ms", ms_between(t0, stamps.first_row))
        .field_raw("rows", method_rows_json(row));
    served.element_raw(entry.str());
  }
  service.shutdown();

  // 3. ResultCache on its own: the request list's key sequence against a
  // disk-backed cache holding the warm keys, storing on every miss.
  core::ResultCache bare(o.cache_dir + "/bare");
  std::map<std::string, std::uint64_t> context_fp;
  for (const auto& [name, c] : circuits)
    context_fp[name] =
        core::FlowEngine(c.nl, library, flow).context_fingerprint();
  std::vector<double> lookup_us;
  std::vector<double> store_us;
  std::uint64_t hits = 0;
  const auto replay = [&](const Request& r, const Row& row, bool timed) {
    const std::uint64_t base = shard_seed(r.seed);
    const std::uint64_t fp = context_fp.at(r.circuit);
    const std::uint64_t keys[2] = {
        core::cache_key(fp, "evolution", Rng::mix_seed(base, 0), 0, nullptr),
        core::cache_key(fp, "standard", Rng::mix_seed(base, 1), 0,
                        &row.evolution.partition)};
    const core::MethodResult* results[2] = {&row.evolution, &row.standard};
    for (int m = 0; m < 2; ++m) {
      const auto t0 = Clock::now();
      const bool hit = bare.lookup(keys[m]).has_value();
      const auto t1 = Clock::now();
      if (timed) {
        lookup_us.push_back(ms_between(t0, t1) * 1000.0);
        hits += hit ? 1 : 0;
      }
      if (hit) continue;
      const auto record = record_of(*results[m]);
      const auto t2 = Clock::now();
      bare.store(keys[m], record);
      if (timed) store_us.push_back(ms_between(t2, Clock::now()) * 1000.0);
    }
  };
  for (const auto& [r, row] : warm_rows) replay(r, row, false);
  for (const Request& r : reqs)
    if (r.kind == "req" && rows_by_id.count(r.id) != 0)
      replay(r, rows_by_id.at(r.id), true);

  JsonWriter bad(JsonWriter::Kind::Array);
  for (const auto& m : mismatches) bad.element(m);
  JsonWriter doc;
  doc.field_raw("served", served.str())
      .field_raw("lookup_us", doubles_json(lookup_us))
      .field_raw("store_us", doubles_json(store_us))
      .field("cache_hits", hits)
      .field_raw("untraced_ms", doubles_json(untraced_ms))
      .field("oracle_entries", counts.oracle_entries)
      .field("evolution_evals", counts.evolution_evals)
      .field_raw("load_ms", doubles_json(load_ms))
      .field_raw("mismatches", bad.str())
      .field_raw("spans", tracer.json())
      .field("peak_rss_mb", peak_rss_mb());
  std::cout << doc.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.mode == "setup") {
      std::vector<double> load_ms;
      const auto library = lib::default_library();
      const auto circuits = load_all(o, nullptr, load_ms);
      JsonWriter doc;
      doc.field("circuits", static_cast<std::uint64_t>(circuits.size()))
          .field("cells", static_cast<std::uint64_t>(library.size()));
      std::cout << doc.str() << "\n";
      return 0;
    }
    return o.mode == "sweep" ? run_sweep(o) : run_serve(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}

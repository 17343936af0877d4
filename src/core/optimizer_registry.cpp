#include "core/optimizer_registry.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "core/force_directed.hpp"
#include "core/random_search.hpp"
#include "core/refiner.hpp"
#include "core/standard_partition.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace iddq::core {

namespace {

struct MethodRow {
  std::string_view name;
  OptimizerMethod run;
};

// The method table, sorted by name (names() lists it in this order).
constexpr MethodRow kMethods[] = {
    {"annealing",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_annealing(r, c.sa);
     }},
    {"evolution",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_evolution(r, c.es);
     }},
    {"force",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_force(r, c.force_passes);
     }},
    {"greedy",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_greedy(r, c.greedy_max_evaluations);
     }},
    {"random",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_random(r, c.random_samples);
     }},
    {"standard",
     [](const OptimizerRequest& r, const OptimizerConfig&) {
       return run_standard(r);
     }},
    {"tabu",
     [](const OptimizerRequest& r, const OptimizerConfig& c) {
       return run_tabu(r, c.tabu);
     }},
};
static_assert(std::adjacent_find(std::begin(kMethods), std::end(kMethods),
                                 [](const MethodRow& a, const MethodRow& b) {
                                   return a.name >= b.name;
                                 }) == std::end(kMethods),
              "kMethods must be sorted by name, without duplicates");

}  // namespace

const OptimizerRegistry& OptimizerRegistry::global() {
  static const OptimizerRegistry registry;
  return registry;
}

std::vector<std::string> OptimizerRegistry::names() const {
  std::vector<std::string> out;
  for (const MethodRow& row : kMethods) out.emplace_back(row.name);
  return out;
}

std::unique_ptr<const OptimizerPlan> OptimizerRegistry::make(
    std::string_view spec, const OptimizerConfig& config) const {
  return std::make_unique<const OptimizerPlan>(spec, config);
}

OptimizerPlan::OptimizerPlan(std::string_view spec,
                             const OptimizerConfig& config)
    : config_(config) {
  const auto trimmed = str::trim(spec);
  if (!str::starts_with(trimmed, kPortfolioPrefix)) {
    members_.push_back(parse_pipeline(spec));
    name_ = members_.front().name;
    return;
  }
  portfolio_ = true;
  name_ = kPortfolioPrefix;
  for (const auto member :
       str::split(trimmed.substr(kPortfolioPrefix.size()), ',')) {
    if (member.empty())
      throw LookupError("empty method in portfolio spec '" +
                        std::string(spec) + "'");
    if (str::starts_with(member, kPortfolioPrefix))
      throw Error("portfolio members cannot nest: '" + std::string(spec) +
                  "'");
    members_.push_back(parse_pipeline(member));
    if (members_.size() > 1) name_ += ',';
    name_ += members_.back().name;
  }
}

OptimizerPlan::Pipeline OptimizerPlan::parse_pipeline(std::string_view spec) {
  Pipeline pipeline;
  for (const auto part : str::split(spec, '+')) {
    const auto row =
        std::find_if(std::begin(kMethods), std::end(kMethods),
                     [part](const MethodRow& r) { return r.name == part; });
    if (row == std::end(kMethods)) {
      std::ostringstream os;
      if (part.empty())
        os << "empty optimizer name in spec '" << spec << "'";
      else
        os << "unknown optimizer '" << part << "'";
      os << "; valid names:";
      for (const MethodRow& r : kMethods) os << ' ' << r.name;
      throw LookupError(os.str());
    }
    if (!pipeline.name.empty()) pipeline.name += '+';
    pipeline.name.append(part);
    pipeline.stages.push_back(row->run);
  }
  return pipeline;
}

OptimizerOutcome OptimizerPlan::run(const OptimizerRequest& request) const {
  return portfolio_ ? run_portfolio(request)
                    : run_pipeline(members_.front(), request);
}

// Runs the stages in sequence; every stage after the first starts from the
// partition the previous stage produced. Evaluations and iterations
// accumulate; the returned partition/fitness/costs are the best any stage
// reached. A request budget is shared across stages: each stage gets what
// the previous stages have not already spent.
OptimizerOutcome OptimizerPlan::run_pipeline(
    const Pipeline& pipeline, const OptimizerRequest& request) const {
  if (pipeline.stages.size() == 1)
    return pipeline.stages.front()(request, config_);
  OptimizerRequest stage_request = request;
  OptimizerOutcome best;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
  std::vector<GenerationStats> trace;
  for (std::size_t i = 0; i < pipeline.stages.size(); ++i) {
    if (request.max_evaluations > 0) {
      if (evaluations >= request.max_evaluations) break;  // budget spent
      stage_request.max_evaluations = request.max_evaluations - evaluations;
    }
    OptimizerOutcome stage = pipeline.stages[i](stage_request, config_);
    evaluations += stage.evaluations;
    iterations += stage.iterations;
    if (trace.empty()) trace = std::move(stage.trace);
    if (i + 1 < pipeline.stages.size()) stage_request.start = stage.partition;
    if (i == 0 || stage.fitness < best.fitness) best = std::move(stage);
  }
  best.method = pipeline.name;
  best.evaluations = evaluations;
  best.iterations = iterations;
  best.trace = std::move(trace);
  return best;
}

OptimizerOutcome OptimizerPlan::run_portfolio(
    const OptimizerRequest& request) const {
  const std::size_t count = members_.size();
  // Members are fully independent (own derived seed, own start, own
  // evaluators over the shared read-only context), so they race on the
  // request's pool; results land in per-member slots and the reduction
  // below runs on the caller in member order. Progress callbacks are
  // serialized so downstream sinks (server sessions, CLI tickers) still
  // observe one event at a time.
  std::mutex progress_mutex;
  ProgressCallback serialized;
  if (request.on_progress) {
    serialized = [&request, &progress_mutex](const OptimizerProgress& p) {
      const std::scoped_lock lock(progress_mutex);
      request.on_progress(p);
    };
  }
  std::vector<std::optional<OptimizerOutcome>> outcomes(count);
  support::parallel_for_indexed(request.pool, count, [&](std::size_t i) {
    OptimizerRequest member_request = request;
    member_request.seed = Rng::mix_seed(request.seed, i);
    member_request.on_progress = serialized;
    if (request.max_evaluations > 0) {
      // Never hand a member share 0: methods read 0 as "use your
      // configured default budget", which would blow the shared cap.
      member_request.max_evaluations =
          std::max<std::size_t>(1, request.max_evaluations / count +
                                       (i < request.max_evaluations % count
                                            ? 1
                                            : 0));
    }
    outcomes[i] = run_pipeline(members_[i], member_request);
  });

  OptimizerOutcome best;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
  for (std::size_t i = 0; i < count; ++i) {
    OptimizerOutcome& outcome = *outcomes[i];
    evaluations += outcome.evaluations;
    iterations += outcome.iterations;
    // Strict improvement only: ties resolve to the earliest member.
    if (i == 0 || outcome.fitness < best.fitness) best = std::move(outcome);
  }
  best.method = name_;
  best.evaluations = evaluations;
  best.iterations = iterations;
  request.report(best);
  return best;
}

}  // namespace iddq::core

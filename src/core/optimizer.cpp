#include "core/optimizer.hpp"

#include "core/size_planner.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {

const part::EvalContext& OptimizerRequest::context() const {
  require(ctx != nullptr, "optimizer request: EvalContext is required");
  return *ctx;
}

std::size_t OptimizerRequest::resolved_module_count() const {
  if (start) return start->module_count();
  if (module_count > 0) return module_count;
  return plan_module_size(context()).module_count;
}

part::Partition OptimizerRequest::start_partition() const {
  if (start) return *start;
  Rng rng(seed);
  return make_start_partition(context().nl, resolved_module_count(), rng);
}

void OptimizerRequest::report(std::string_view method, std::size_t iteration,
                              std::size_t evaluations,
                              const part::Fitness& best) const {
  if (on_progress) on_progress({method, iteration, evaluations, best});
}

}  // namespace iddq::core

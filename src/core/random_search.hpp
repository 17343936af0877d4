// Random-search baseline: evaluate many independent chain-clustered start
// partitions and keep the best. The weakest of the section-4 alternatives;
// it anchors the low end of the optimizer comparison. The samples are
// independent, so they evaluate in parallel on an ExecutorPool with all
// RNG draws on the coordinator — byte-identical at any thread count.
#pragma once

#include <cstddef>

#include "core/optimizer.hpp"

namespace iddq::core {

/// Evaluates `samples` chain-clustered start partitions with
/// request.resolved_module_count() modules, drawn from Rng(request.seed),
/// and keeps the best. request.max_evaluations, when set, replaces
/// `samples`. `iterations` and `evaluations` both count samples. Throws
/// iddq::Error when there is no sample to draw.
[[nodiscard]] OptimizerOutcome run_random(const OptimizerRequest& request,
                                          std::size_t samples);

}  // namespace iddq::core

// Shared configuration for the reproduction benches.
//
// Every bench prints the paper-reported values next to the measured ones;
// EXPERIMENTS.md is generated from exactly these binaries' output.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/evolution.hpp"
#include "electrical/sensor_model.hpp"
#include "partition/cost_model.hpp"

namespace iddq::bench {

/// The paper's ES parameters plus the seed the benches run it at. The
/// seed is a per-run input (OptimizerRequest / FlowRunOptions::seed);
/// assigning `es` to a core::EsParams keeps only the tuning knobs.
struct PaperEs : core::EsParams {
  std::uint64_t seed = 42;
};

/// The paper's flow parameters; a bench copies them into a
/// core::FlowEngineConfig and runs each method at seed `es.seed`.
struct PaperParams {
  elec::SensorSpec sensor;
  part::CostWeights weights;
  std::uint32_t rho = 4;  // separation saturation distance
  PaperEs es;
};

/// The flow configuration used by the Table 1 reproduction. The evolution
/// budget can be scaled down for smoke runs via IDDQSYN_BENCH_FAST=1.
inline PaperParams paper_flow_config(std::uint64_t seed = 42) {
  PaperParams cfg;
  cfg.es.mu = 8;
  cfg.es.lambda = 7;
  cfg.es.chi = 2;
  cfg.es.kappa = 8;
  cfg.es.m0 = 4;
  cfg.es.epsilon = 1.0;
  cfg.es.max_generations = 350;
  cfg.es.stall_generations = 60;
  cfg.es.seed = seed;
  if (const char* fast = std::getenv("IDDQSYN_BENCH_FAST");
      fast != nullptr && std::string(fast) == "1") {
    cfg.es.max_generations = 60;
    cfg.es.stall_generations = 20;
  }
  return cfg;
}

}  // namespace iddq::bench

// Golden trajectories of every search method in the method table.
//
// Each spec runs once on a fixed random DAG at a fixed seed and budget,
// serially, through OptimizerRegistry::global().make(spec, config)->run().
// The pinned line records the fitness and cost bits (hex-float), the
// evaluation and iteration counts, a Hash64 of the module lists and the
// full sequence of progress ticks. Any change to a method's RNG order,
// move sequence, budget mapping or progress cadence shows up here as a
// one-line diff. The cache fingerprint of a default config and one cache
// key are pinned too, so cache entries written before a refactor keep
// replaying after it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/optimizer_registry.hpp"
#include "core/result_cache.hpp"
#include "library/fingerprint.hpp"
#include "netlist/fingerprint.hpp"
#include "netlist/gen/random_dag.hpp"
#include "support/hash.hpp"

namespace iddq::core {
namespace {

struct Fixture {
  netlist::Netlist nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("golden", 240, 14, 21));
  lib::CellLibrary library = lib::default_library();
  part::EvalContext ctx{nl, library, elec::SensorSpec{},
                        part::CostWeights{}};
};

/// Small budgets that still cross every progress cadence: annealing ticks
/// every 1000 steps, tabu every 25 rounds, the ES every generation.
OptimizerConfig golden_config() {
  OptimizerConfig cfg;
  cfg.es.mu = 4;
  cfg.es.lambda = 4;
  cfg.es.chi = 2;
  cfg.es.max_generations = 10;
  cfg.es.stall_generations = 10;
  cfg.sa.steps = 2500;
  cfg.tabu.iterations = 80;
  cfg.random_samples = 40;
  cfg.greedy_max_evaluations = 3000;
  cfg.force_passes = 20;
  return cfg;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One line per spec: everything a run exposes that the rows depend on.
std::string golden_line(std::string_view spec) {
  const Fixture f;
  std::string ticks;
  OptimizerRequest request;
  request.ctx = &f.ctx;
  request.module_count = 4;
  request.seed = 42;
  request.on_progress = [&ticks](const OptimizerProgress& p) {
    ticks += ' ';
    ticks += p.method;
    ticks += ':' + std::to_string(p.iteration) + '/' +
             std::to_string(p.evaluations) + '/' + hex(p.best.cost);
  };
  const auto outcome =
      OptimizerRegistry::global().make(spec, golden_config())->run(request);

  Hash64 modules;
  modules.mix_size(outcome.partition.module_count());
  for (std::uint32_t m = 0; m < outcome.partition.module_count(); ++m) {
    const auto gates = outcome.partition.module(m);
    modules.mix_size(gates.size());
    for (const auto g : gates) modules.mix_u64(g);
  }
  std::string line = outcome.method + " v=" + hex(outcome.fitness.violation) +
                     " c=" + hex(outcome.fitness.cost);
  const auto costs = outcome.costs.as_array();
  for (std::size_t i = 0; i < costs.size(); ++i)
    line += " c" + std::to_string(i + 1) + '=' + hex(costs[i]);
  line += " evals=" + std::to_string(outcome.evaluations) +
          " iters=" + std::to_string(outcome.iterations) +
          " k=" + std::to_string(outcome.partition.module_count()) +
          " modules=" + hex64(modules.value()) + " ticks:" + ticks;
  return line;
}

TEST(MethodGolden, Annealing) {
  EXPECT_EQ(golden_line("annealing"),
            "annealing v=0x0p+0 c=0x1.6eab93aac7315p+11 "
            "c1=0x1.ce880ade96138p+3 c2=0x1.c2d633605d516p-6 "
            "c3=0x1.5adc3d8aa3363p+3 c4=0x1.7e2f8f4154eb4p-1 c5=0x1p+2 "
            "evals=2501 iters=2501 k=4 modules=c807b7f0d0b44b6f ticks: "
            "annealing:1000/1001/0x1.bed0dc681e49fp+11 "
            "annealing:2000/2001/0x1.8dc18f147db5bp+11 "
            "annealing:2501/2501/0x1.6eab93aac7315p+11");
}

TEST(MethodGolden, Evolution) {
  EXPECT_EQ(golden_line("evolution"),
            "evolution v=0x0p+0 c=0x1.ea9d5e5808a89p+11 "
            "c1=0x1.cfbf776ef10acp+3 c2=0x1.329a37ed5d8d6p-5 "
            "c3=0x1.57d1214d58d18p+3 c4=0x1.0a036a1fb438cp+0 c5=0x1p+2 "
            "evals=244 iters=10 k=4 modules=f42e66363ba3123f ticks: "
            "evolution:1/28/0x1.0906c49110f5ep+12 "
            "evolution:2/52/0x1.0814cedd7972ap+12 "
            "evolution:3/76/0x1.077ba2b725129p+12 "
            "evolution:4/100/0x1.0583ca6b6928p+12 "
            "evolution:5/124/0x1.04bd343683b92p+12 "
            "evolution:6/148/0x1.f3d8967c75679p+11 "
            "evolution:7/172/0x1.f35a50b0db408p+11 "
            "evolution:8/196/0x1.ed382eb60d91bp+11 "
            "evolution:9/220/0x1.eaa8d8e953488p+11 "
            "evolution:10/244/0x1.ea9d5e5808a89p+11 "
            "evolution:10/244/0x1.ea9d5e5808a89p+11");
}

TEST(MethodGolden, Force) {
  EXPECT_EQ(golden_line("force"),
            "force v=0x0p+0 c=0x1.0adca5dd02142p+12 c1=0x1.d9196f4e5bc06p+3 "
            "c2=0x1.4ebbce3b31ec9p-5 c3=0x1.437be620e5df8p+3 "
            "c4=0x1.0995b0efb02fp-1 c5=0x1p+2 evals=1 iters=20 k=4 "
            "modules=17e7b9911d278461 ticks: force:20/1/0x1.0adca5dd02142p+12");
}

TEST(MethodGolden, Greedy) {
  EXPECT_EQ(golden_line("greedy"),
            "greedy v=0x0p+0 c=0x1.f1f583772b9d7p+11 c1=0x1.cfcfcdeaab989p+3 "
            "c2=0x1.377f5c694fcbfp-5 c3=0x1.46bcf898a9d1ap+3 "
            "c4=0x1.1c1df2188a826p-1 c5=0x1p+2 evals=1287 iters=126 k=4 "
            "modules=7e427bee5bc261ab ticks: "
            "greedy:126/1287/0x1.f1f583772b9d7p+11");
}

TEST(MethodGolden, Random) {
  EXPECT_EQ(golden_line("random"),
            "random v=0x0p+0 c=0x1.07da98f60c802p+12 c1=0x1.cf0de87fc221bp+3 "
            "c2=0x1.4b056578c0762p-5 c3=0x1.44d8488223396p+3 "
            "c4=0x1.f810370bb264p-2 c5=0x1p+2 evals=40 iters=40 k=4 "
            "modules=23626ca7f571b8c1 ticks: "
            "random:40/40/0x1.07da98f60c802p+12");
}

TEST(MethodGolden, Standard) {
  EXPECT_EQ(golden_line("standard"),
            "standard v=0x0p+0 c=0x1.16a6f93f5078fp+12 "
            "c1=0x1.d463062cb7abcp+3 c2=0x1.5e4b9f5b2768fp-5 "
            "c3=0x1.43b1180be6a7ap+3 c4=0x1.0a2268b93b34fp-1 c5=0x1p+2 "
            "evals=1 iters=1 k=4 modules=2d3a31b0ae320681 ticks: "
            "standard:1/1/0x1.16a6f93f5078fp+12");
}

TEST(MethodGolden, Tabu) {
  EXPECT_EQ(golden_line("tabu"),
            "tabu v=0x0p+0 c=0x1.f64fa517b81d8p+11 c1=0x1.d05a633a63394p+3 "
            "c2=0x1.3a578bc6dd549p-5 c3=0x1.46b7d8ef9aaap+3 "
            "c4=0x1.fd432d3194db2p-2 c5=0x1p+2 evals=633 iters=80 k=4 "
            "modules=b511093e73bef8ad ticks: "
            "tabu:25/198/0x1.0130356f9f1fap+12 "
            "tabu:50/396/0x1.fb5f272c19747p+11 "
            "tabu:75/596/0x1.f6b4e301bd551p+11 "
            "tabu:80/633/0x1.f64fa517b81d8p+11");
}

TEST(MethodGolden, EvolutionThenGreedy) {
  EXPECT_EQ(golden_line("evolution+greedy"),
            "evolution+greedy v=0x0p+0 c=0x1.9b2eaaf37d1ap+11 "
            "c1=0x1.ce872088588c4p+3 c2=0x1.fd46af696c4c3p-6 "
            "c3=0x1.4962f847ac407p+3 c4=0x1.68a224be0ec32p-1 c5=0x1p+2 "
            "evals=1631 iters=152 k=4 modules=bc4ae27ea65234f5 ticks: "
            "evolution:1/28/0x1.0906c49110f5ep+12 "
            "evolution:2/52/0x1.0814cedd7972ap+12 "
            "evolution:3/76/0x1.077ba2b725129p+12 "
            "evolution:4/100/0x1.0583ca6b6928p+12 "
            "evolution:5/124/0x1.04bd343683b92p+12 "
            "evolution:6/148/0x1.f3d8967c75679p+11 "
            "evolution:7/172/0x1.f35a50b0db408p+11 "
            "evolution:8/196/0x1.ed382eb60d91bp+11 "
            "evolution:9/220/0x1.eaa8d8e953488p+11 "
            "evolution:10/244/0x1.ea9d5e5808a89p+11 "
            "evolution:10/244/0x1.ea9d5e5808a89p+11 "
            "greedy:142/1387/0x1.9b2eaaf37d1ap+11");
}

TEST(MethodGolden, PortfolioEvolutionAnnealing) {
  EXPECT_EQ(golden_line("portfolio:evolution,annealing"),
            "portfolio:evolution,annealing v=0x0p+0 c=0x1.65a3144541bc6p+11 "
            "c1=0x1.cedd8fb16a8d8p+3 c2=0x1.b6f751bdb4cacp-6 "
            "c3=0x1.5dbe68be95f62p+3 c4=0x1.7fb423a687901p-1 c5=0x1p+2 "
            "evals=2745 iters=2511 k=4 modules=77e509bfced3239b ticks: "
            "evolution:1/28/0x1.0b84a08c6a1edp+12 "
            "evolution:2/52/0x1.0117791b09699p+12 "
            "evolution:3/76/0x1.f5a284b2fe882p+11 "
            "evolution:4/100/0x1.e4b46f8c55bb4p+11 "
            "evolution:5/124/0x1.df0760ffce21ep+11 "
            "evolution:6/148/0x1.da9bcc80bac0ep+11 "
            "evolution:7/172/0x1.d1df3d84ad8b6p+11 "
            "evolution:8/196/0x1.ce5924a5054a1p+11 "
            "evolution:9/220/0x1.c5d5cbaf7c2a6p+11 "
            "evolution:10/244/0x1.c4d9f9af9147p+11 "
            "evolution:10/244/0x1.c4d9f9af9147p+11 "
            "annealing:1000/1001/0x1.a909affec0f9ep+11 "
            "annealing:2000/2001/0x1.7a8f3770e9048p+11 "
            "annealing:2501/2501/0x1.65a3144541bc6p+11 "
            "portfolio:evolution,annealing:2511/2745/0x1.65a3144541bc6p+11");
}

TEST(MethodGolden, CacheFingerprintAndKey) {
  const Fixture f;
  const std::uint64_t context = cache_context_fingerprint(
      netlist::structural_fingerprint(f.nl),
      lib::library_fingerprint(f.library), elec::SensorSpec{},
      part::CostWeights{}, 4, OptimizerConfig{});
  EXPECT_EQ(hex64(context), "f34b74b43250309e");
  EXPECT_EQ(hex64(cache_key(context, "evolution", 42, 0, nullptr)),
            "ef305cde4bc9312b");
  EXPECT_EQ(hex64(cache_context_fingerprint(
                netlist::structural_fingerprint(f.nl),
                lib::library_fingerprint(f.library), elec::SensorSpec{},
                part::CostWeights{}, 4, golden_config())),
            "0b287675b3635c35");
}

}  // namespace
}  // namespace iddq::core

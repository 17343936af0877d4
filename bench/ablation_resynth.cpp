// Extension bench: IDDQ-aware resynthesis (the paper's stated next step).
//
// "Next step is controlling the logic synthesis procedure such that the
// presented cost function is considered at the early beginning."
//
// The wave-retiming pass (core/resynth.hpp) desynchronizes simultaneous
// switching by buffering slack paths, shrinking the peak transient current
// *before* partitioning. This bench runs the full flow on the original and
// the retimed circuit and compares: circuit peak, partition sensor area,
// buffer overhead, and critical-path delay.
#include <iostream>

#include "bench/common.hpp"
#include "core/flow_engine.hpp"
#include "core/resynth.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "report/table.hpp"

int main() {
  using namespace iddq;
  std::cout << "=== Extension: wave-retiming resynthesis before partitioning ===\n\n";

  const auto library = lib::default_library();
  report::TextTable table({"circuit", "variant", "sum module peaks [mA]",
                           "sensor area", "buffers", "delay [ns]",
                           "area saved"});

  for (const auto name : {"c1908", "c2670"}) {
    const auto nl = netlist::gen::make_iscas_like(name);

    // Step 1: partition the original circuit (the paper's flow).
    const auto cfg = bench::paper_flow_config();
    core::FlowEngineConfig engine_config;
    engine_config.sensor = cfg.sensor;
    engine_config.weights = cfg.weights;
    engine_config.rho = cfg.rho;
    engine_config.optimizers.es = cfg.es;
    engine_config.optimizers.es.max_generations = 150;
    core::FlowEngine engine(nl, library, engine_config);
    core::FlowEngine::RunOptions es_options;
    es_options.seed = cfg.es.seed;
    const auto base = engine.run_method("evolution", es_options);

    // Step 2: partition-aware wave retiming against that partition.
    std::vector<std::vector<netlist::GateId>> groups(
        base.partition.module_count());
    for (std::uint32_t m = 0; m < groups.size(); ++m) {
      const auto gates = base.partition.module(m);
      groups[m].assign(gates.begin(), gates.end());
    }
    core::ResynthOptions opts;
    opts.max_retimed_gates = 150;
    opts.target_peak_reduction = 0.5;
    const auto retimed =
        core::retime_for_iddq_partitioned(nl, library, groups, opts);

    // Step 3: evaluate the retimed circuit under the extended partition.
    const part::EvalContext ctx(retimed.netlist, library, cfg.sensor,
                                cfg.weights, cfg.rho);
    const auto improved = core::evaluate_method(
        ctx, "retimed",
        part::Partition::from_groups(retimed.netlist, retimed.groups));

    const double saved_pct =
        (1.0 - improved.sensor_area / base.sensor_area) * 100.0;
    table.add_row(
        {std::string(name), "original",
         report::format_fixed(retimed.sum_peak_before_ua / 1000.0, 1),
         report::format_eng(base.sensor_area), "0",
         report::format_fixed(retimed.delay_before_ps / 1000.0, 2), "--"});
    table.add_row(
        {std::string(name), "retimed",
         report::format_fixed(retimed.sum_peak_after_ua / 1000.0, 1),
         report::format_eng(improved.sensor_area),
         std::to_string(retimed.buffers_added),
         report::format_fixed(retimed.delay_after_ps / 1000.0, 2),
         report::format_pct(saved_pct, true)});
  }
  table.print(std::cout);
  std::cout <<
      "\nreading: retiming against the *partition's* per-module peaks (the\n"
      "quantity the area model charges) shrinks the sized-to-peak bypass\n"
      "switches at zero critical-path cost (delay_margin = 0) -- the\n"
      "cost-driven synthesis coupling the paper's conclusion proposes.\n";
  return 0;
}

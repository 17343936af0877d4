// Multi-method, multi-circuit sweep through the JobService.
//
//   $ ./optimizer_sweep [jobs]        default 1 worker thread
//
// Fans the registry methods {evolution, annealing, random, standard} out
// over several builtin circuits, one job per circuit on a worker pool.
// Circuit i runs at base seed Rng::mix_seed(42, i), derived from its index
// alone, so any jobs value produces the same table — run with 1 and 4 and
// diff the output to see for yourself.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/job_service.hpp"
#include "library/cell_library.hpp"
#include "report/table.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace iddq;
  const std::size_t jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 1;

  const std::vector<std::string> circuits{"c17", "c1908", "c2670", "c3540"};
  const std::vector<std::string> methods{"evolution", "annealing", "random",
                                         "standard"};

  const auto library = lib::default_library();
  core::JobServiceConfig config;
  config.workers = std::min(jobs, circuits.size());
  config.flow.optimizers.es.max_generations = 80;
  config.flow.optimizers.es.stall_generations = 25;
  core::JobService service(library, config);

  std::vector<core::JobHandle> handles;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    core::JobSpec spec;
    spec.circuit = circuits[i];
    spec.methods = methods;
    spec.base_seed = Rng::mix_seed(42, i);
    handles.push_back(service.submit(std::move(spec)));
  }

  report::TextTable table(
      {"circuit", "method", "K", "cost", "sensor area", "evals", "feasible"});
  for (const auto& handle : handles) {
    const core::JobResult& item = handle.wait();
    if (!item.ok()) {
      std::cerr << item.circuit << ": " << item.error << "\n";
      continue;
    }
    for (const auto& m : item.rows)
      table.add_row({item.circuit, m.method, std::to_string(m.module_count),
                     report::format_fixed(m.fitness.cost, 1),
                     report::format_eng(m.sensor_area),
                     std::to_string(m.evaluations),
                     m.fitness.feasible() ? "yes" : "NO"});
  }
  std::cout << "=== optimizer sweep (" << jobs << " job"
            << (jobs == 1 ? "" : "s") << ") ===\n\n";
  table.print(std::cout);
  std::cout << "\nthe table is byte-identical for any jobs value: per-task\n"
               "seeds depend on the task index, never on thread timing.\n";
  return 0;
}

// Generic experiment sweeps: any scenario family crossed with any parameter
// grid, straight from the command line — no recompiling to explore a new
// slice of the paper's parameter space.
//
//   bench_sweep --list
//   bench_sweep --family fig2_psuccess --grid "n=2..24;f=2..6"
//   bench_sweep --family ablation_relay --grid "f=2..5;relay=true,false"
//               --seed 43690 --cache-dir /tmp/drs-cache --threads 4
//               --json-out sweep.json          (one command line)
//
// The JSON report and the printed table are byte-identical for any --threads
// and for warm vs cold caches; the trailing summary line reports the cache
// hit rate (CI asserts >= 90% on the second of two identical runs).
#include <cstdio>
#include <exception>

#include "exp/cli.hpp"

namespace {

using namespace drs;

void list_families() {
  std::printf("scenario families:\n");
  for (const exp::Scenario& s : exp::scenarios()) {
    std::string tags;
    if (s.uses_seed) tags += " [seed]";
    if (s.uses_config) tags += " [config]";
    if (!s.cacheable) tags += " [uncacheable]";
    std::string required;
    for (const std::string& axis : s.required) {
      if (!required.empty()) required += ", ";
      required += axis;
    }
    std::printf("  %-26s requires: %-18s%s\n      %s\n", s.family.c_str(),
                required.empty() ? "-" : required.c_str(), tags.c_str(),
                s.help.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_bench_cli(
      argc, argv,
      {{"family", "scenario family to sweep (see --list)"},
       {"grid", "parameter grid, e.g. \"n=2..24;f=2,4;relay=true,false\""},
       {"list", "list the scenario families and exit"},
       {"quiet", "suppress the result table (summary + JSON only)"}});
  if (!cli) return 1;
  if (cli->flags.help_requested()) return 0;
  if (cli->flags.get_bool("list")) {
    list_families();
    return 0;
  }

  exp::ExperimentSpec spec;
  spec.family = cli->flags.get_string("family", "");
  if (spec.family.empty()) {
    std::fprintf(stderr, "--family is required (try --list)\n");
    return 1;
  }
  std::string error;
  const auto grid = exp::parse_grid(cli->flags.get_string("grid", ""), &error);
  if (!grid) {
    std::fprintf(stderr, "--grid: %s\n", error.c_str());
    return 1;
  }
  spec.grid = *grid;
  cli->apply(spec);

  exp::ExperimentResult result;
  try {
    result = exp::run_experiment(spec, cli->engine);
  } catch (const std::exception& e) {
    // A cell that rejects its parameters (say, an out-of-range axis) throws;
    // report it like a spec error instead of terminating.
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }

  if (!cli->flags.get_bool("quiet")) {
    std::printf("%s\n", result.to_table().to_text().c_str());
  }
  exp::JsonReport report;
  report.add(result);
  if (!report.write_to(cli->json_out)) return 1;
  std::printf("%s\n", exp::summary_line(result).c_str());
  return 0;
}

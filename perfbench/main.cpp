// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--counts <exact-count record>]
//
// --trace 0 times the workload through the public Solver / SolverService /
// DistSolver APIs and prints the end-to-end metrics; --trace 1 replays the
// workload's pipeline layer by layer with spans and prints the per-layer
// metrics. The last stdout line is the JSON result either way. Exit code 0
// unless an argument is bad, the replay parity gate fails, or an exact count
// differs within the run or from the record of an earlier run of the same
// code.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      cfg.workload = v;
    else if (k == "--seed")
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace")
      cfg.trace = v == "1";
    else if (k == "--out-dir")
      cfg.out_dir = v;
    else if (k == "--counts")
      cfg.counts_path = v;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  perfbench::Result (*run)(const perfbench::Config&) = nullptr;
  if (cfg.workload == "oneshot-serial")
    run = perfbench::run_oneshot_serial;
  else if (cfg.workload == "serve-open")
    run = perfbench::run_serve_open;
  else if (cfg.workload == "dist-2x2")
    run = perfbench::run_dist_2x2;
  if (!run || cfg.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload oneshot-serial|serve-open|"
                 "dist-2x2 --seed N --seconds S --trace 0|1 --out-dir DIR "
                 "[--counts FILE]\n");
    return 2;
  }
  try {
    run(cfg).print();
  } catch (const std::exception& e) {
    // Parity and exact-count violations land here: loud, no result line.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

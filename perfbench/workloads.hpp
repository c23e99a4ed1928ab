// The workloads and the layer-by-layer replay they share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "report.hpp"

namespace perfbench {

Result run_oneshot_serial(const Config& cfg);
Result run_serve_open(const Config& cfg);
Result run_dist_2x2(const Config& cfg);

/// Solver's pipeline replayed through the public function of each layer:
/// compute_transform → symbolic::analyze → numeric::LUFactors →
/// LUFactors::solve → refine::iterative_refinement, each call inside a span.
struct Replay {
  gesp::TransformResult<double> tr;
  double at_norm = 0.0;
  std::shared_ptr<const gesp::symbolic::SymbolicLU> sym;
  std::unique_ptr<gesp::numeric::LUFactors<double>> lu;
  double factor_s = 0.0;  ///< wall of the LUFactors construction
  double berr = 0.0;
  int iterations = 0;
};

/// Numeric options exactly as Solver derives them from `opt` for a double
/// factorization (the replay needs them to construct LUFactors itself).
gesp::numeric::NumericOptions numeric_options_for(
    const gesp::SolverOptions& opt, double at_norm);

/// Replay the analysis and factorization of A (spans under `parent`).
Replay replay_factor(const Matrix& A, const gesp::SolverOptions& opt,
                     Tracer* tr, long item, int parent);
/// Replay solve + refinement of A·x = b on `r`'s factors (sets r.berr).
void replay_solve(Replay& r, const std::vector<double>& b,
                  const gesp::SolverOptions& opt, Tracer* tr, long item,
                  int parent);

/// Bitwise comparison of two factorizations, supernode by supernode
/// (l_store / u_store). Returns "" when identical, else the first mismatch.
std::string factor_mismatch(const gesp::numeric::LUFactors<double>& a,
                            const gesp::numeric::LUFactors<double>& b);

/// Achieved GF/s of the dense update kernel on a (192 x b)·(b x 192) update.
double gemm_probe_gflops(int b);

/// Every per-layer metric name with its unit, in report order. A traced run
/// prints all of them; a layer that does no work on a workload reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Emit every per-layer metric from `values` (missing ones as 0) and write
/// the trace file.
void emit_per_layer(Result& res, const Config& cfg, const Tracer& tracer,
                    const std::vector<std::pair<std::string, double>>& values);

/// End-to-end metrics of a batch workload (whole passes over fixed items):
/// wall_s is the median pass, the latency metrics are over `item_s`, and
/// max_rps is items per second of a median pass.
void emit_batch_metrics(Result& res, const std::vector<double>& pass_s,
                        const std::vector<double>& item_s,
                        double items_per_pass, double setup_s);

/// Record an analysed matrix's structure counts (nsup, stored entries,
/// flops, factor_asset_bytes) in `ledger`; returns the factor bytes.
double record_structure(CountLedger& ledger, const std::string& name,
                        const gesp::SolveStats& st, gesp::index_t n,
                        gesp::count_t nnz);

/// Self time of one layer in the traced run (0 when it never ran).
double self_s(const Tracer& t, const std::string& layer);
/// Inclusive time of one layer (its spans' durations, children included).
double total_s(const Tracer& t, const std::string& layer);

}  // namespace perfbench

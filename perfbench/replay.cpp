#include <cmath>
#include <cstring>
#include <limits>

#include "dense/kernels.hpp"
#include "refine/refine.hpp"
#include "sparse/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

using gesp::index_t;

gesp::numeric::NumericOptions numeric_options_for(
    const gesp::SolverOptions& opt, double at_norm) {
  gesp::numeric::NumericOptions n;
  n.num_threads = opt.backend == gesp::Backend::serial ? 1 : opt.num_threads;
  n.schedule = opt.schedule;
  n.panel_pivot = opt.panel_pivot;
  n.pivot_threshold_tau = opt.pivot_threshold_tau;
  if (opt.growth_abort > 0.0)
    n.growth_abort = opt.growth_abort;
  else if (opt.growth_abort == 0.0 && opt.recovery.enabled)
    n.growth_abort = opt.recovery.max_pivot_growth;
  if (opt.tiny_pivot != gesp::TinyPivotOption::fail)
    n.tiny_threshold =
        std::sqrt(std::numeric_limits<double>::epsilon()) * at_norm;
  if (opt.tiny_pivot == gesp::TinyPivotOption::aggressive_smw) {
    n.aggressive_replacement = true;
    n.record_replacements = true;
  }
  return n;
}

Replay replay_factor(const Matrix& A, const gesp::SolverOptions& opt,
                     Tracer* tr, long item, int parent) {
  Replay r;
  {
    Scope s(tr, "core.transform", item, parent);
    gesp::PhaseTimes times;
    const double t0 = now_s();
    r.tr = gesp::compute_transform(A, opt, &times);
    r.at_norm = gesp::sparse::norm_max(r.tr.At);
    // The three analysis steps inside compute_transform, from its own phase
    // timer, laid end to end from the start of the call.
    if (tr) {
      double t = t0;
      for (const char* phase : {"equilibrate", "rowperm", "colorder"}) {
        const double d = times.get(phase);
        const std::string name = phase == std::string("equilibrate")
                                     ? "sparse.equilibrate"
                                 : phase == std::string("rowperm")
                                     ? "matching.rowperm"
                                     : "ordering.colorder";
        tr->add(name, item, s.id(), t, t + d);
        t += d;
      }
    }
  }
  {
    Scope s(tr, "symbolic.analyze", item, parent);
    r.sym = std::make_shared<const gesp::symbolic::SymbolicLU>(
        gesp::symbolic::analyze(r.tr.At, opt.symbolic));
  }
  {
    Scope s(tr, "numeric.factor", item, parent);
    const double t0 = now_s();
    r.lu = std::make_unique<gesp::numeric::LUFactors<double>>(
        r.sym, r.tr.At, numeric_options_for(opt, r.at_norm));
    r.factor_s = now_s() - t0;
  }
  return r;
}

void replay_solve(Replay& r, const std::vector<double>& b,
                  const gesp::SolverOptions& opt, Tracer* tr, long item,
                  int parent) {
  const index_t n = r.tr.At.ncols;
  std::vector<double> bhat(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    bhat[r.tr.row_perm[i]] = b[i] * r.tr.row_scale[i];
  std::vector<double> xhat = bhat;
  {
    Scope s(tr, "refine.trisolve", item, parent);
    r.lu->solve(xhat);
  }
  {
    Scope s(tr, "refine.refine", item, parent);
    const int id = s.id();
    const auto res = gesp::refine::iterative_refinement<double>(
        r.tr.At, bhat, xhat,
        [&](std::span<double> v) {
          Scope t(tr, "refine.trisolve", item, id);
          r.lu->solve(v);
        },
        opt.refine);
    r.berr = res.final_berr;
    r.iterations = res.iterations;
  }
}

std::string factor_mismatch(const gesp::numeric::LUFactors<double>& a,
                            const gesp::numeric::LUFactors<double>& b) {
  const index_t N = a.sym().nsup;
  if (b.sym().nsup != N) return "supernode count differs";
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  for (index_t K = 0; K < N; ++K) {
    if (!same(a.l_store(K), b.l_store(K)))
      return "l_store differs at supernode " + std::to_string(K);
    if (!same(a.u_store(K), b.u_store(K)))
      return "u_store differs at supernode " + std::to_string(K);
  }
  return "";
}

double gemm_probe_gflops(int b) {
  constexpr index_t m = 192, n = 192;
  std::vector<double> A(static_cast<std::size_t>(m * b)),
      B(static_cast<std::size_t>(b * n)), C(static_cast<std::size_t>(m * n));
  for (std::size_t i = 0; i < A.size(); ++i) A[i] = 1e-3 * double(i % 97);
  for (std::size_t i = 0; i < B.size(); ++i) B[i] = 1e-3 * double(i % 89);
  const double flops = 2.0 * m * n * b;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    int calls = 0;
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < 0.04) {
      gesp::dense::gemm_minus<double>(m, n, b, A.data(), m, B.data(), b,
                                      C.data(), m);
      ++calls;
      t = now_s();
    }
    best = std::max(best, calls * flops / (t - t0) * 1e-9);
  }
  if (!std::isfinite(C[0])) best = 0.0;  // keeps C observable
  return best;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sparse.equilibrate_s", "s"},
      {"matching.rowperm_s", "s"},
      {"ordering.colorder_s", "s"},
      {"core.transform_s", "s"},
      {"symbolic.analyze_s", "s"},
      {"symbolic.nsup", "count"},
      {"symbolic.stored_lu", "count"},
      {"symbolic.flops", "flop"},
      {"numeric.factor_s", "s"},
      {"numeric.factor_gflops", "GF/s"},
      {"numeric.factor_gflops.circuit", "GF/s"},
      {"numeric.factor_gflops.ex11", "GF/s"},
      {"numeric.factor_bytes", "bytes"},
      {"numeric.peak_frac", "frac"},
      {"dense.gemm_gflops.b24", "GF/s"},
      {"dense.gemm_gflops.b48", "GF/s"},
      {"core.refactorize_s", "s"},
      {"core.refactorize_delta_s", "s"},
      {"core.delta_partial_frac", "frac"},
      {"refine.trisolve_s", "s"},
      {"refine.refine_s", "s"},
      {"refine.iterations", "count"},
      {"serve.value_hit_frac", "frac"},
      {"serve.pattern_hit_frac", "frac"},
      {"serve.miss_frac", "frac"},
      {"serve.batch_width_mean", "count"},
      {"serve.shed_frac", "frac"},
      {"serve.rejected_frac", "frac"},
      {"serve.cache_bytes", "bytes"},
      {"serve.value_hit_ms", "ms"},
      {"serve.pattern_hit_ms", "ms"},
      {"serve.miss_ms", "ms"},
      {"serve.client_late_ms", "ms"},
      {"dist.transform_s", "s"},
      {"dist.analyze_s", "s"},
      {"dist.factor_s", "s"},
      {"dist.factor_imbalance", "ratio"},
      {"dist.solve_s", "s"},
      {"dist.messages", "count"},
      {"dist.bytes", "bytes"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

void emit_per_layer(Result& res, const Config& cfg, const Tracer& tracer,
                    const std::vector<std::pair<std::string, double>>& values) {
  std::vector<std::pair<std::string, double>> all;
  for (const auto& [name, unit] : per_layer_metrics()) {
    double v = 0.0;
    for (const auto& [k, x] : values)
      if (k == name) v = x;
    res.metric(name, v, unit);
    all.push_back({name, v});
  }
  const std::string path = cfg.out_dir + "/" + cfg.workload + ".seed" +
                           std::to_string(cfg.seed) + ".trace.json";
  tracer.write_json(path, cfg.workload, cfg.seed, all);
  res.notes.push_back("trace written to " + path);
}

void emit_batch_metrics(Result& res, const std::vector<double>& pass_s,
                        const std::vector<double>& item_s,
                        double items_per_pass, double setup_s) {
  const double wall = median(pass_s);
  res.metric("wall_s", wall, "s");
  res.metric("gmean_ms", gmean(item_s) * 1e3, "ms");
  res.metric("p50_ms", quantile(item_s, 0.5) * 1e3, "ms");
  res.metric("p99_ms", quantile(item_s, 0.99) * 1e3, "ms");
  res.metric("max_rps", items_per_pass / wall, "1/s");
  res.metric("solved_frac",
             double(res.attempted - res.failed) / double(res.attempted),
             "frac");
  res.metric("setup_s", setup_s, "s");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

double record_structure(CountLedger& ledger, const std::string& name,
                        const gesp::SolveStats& st, index_t n,
                        gesp::count_t nnz) {
  const std::size_t bytes =
      gesp::factor_asset_bytes(st.stored_l, st.stored_u, st.nnz_l, st.nnz_u,
                               n, nnz, sizeof(double), sizeof(double));
  ledger.set("sym." + name + ".nsup", st.nsup);
  ledger.set("sym." + name + ".stored_lu", st.stored_l + st.stored_u);
  ledger.set("sym." + name + ".flops", st.flops);
  ledger.set("sym." + name + ".factor_bytes", static_cast<long long>(bytes));
  return double(bytes);
}

double self_s(const Tracer& t, const std::string& layer) {
  const auto lay = t.layers();
  const auto it = lay.find(layer);
  return it == lay.end() ? 0.0 : it->second.self_s;
}

double total_s(const Tracer& t, const std::string& layer) {
  const auto lay = t.layers();
  const auto it = lay.find(layer);
  return it == lay.end() ? 0.0 : it->second.total_s;
}

}  // namespace perfbench

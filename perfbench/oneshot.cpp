// oneshot-serial: every testbed matrix but bbmat-s, solved cold once each
// with num_threads = 1 and default options, in a seed-shuffled order — the
// plain single-thread baseline. Analysis (~1/3) and factorization (~2/3)
// dominate, so a symbolic or kernel change shows here.
#include <exception>

#include "sparse/testbed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Item {
  std::string name;
  std::string discipline;
  Matrix A;
  std::vector<double> b;
};

bool is_circuit(const std::string& discipline) {
  return discipline.rfind("circuit simulation", 0) == 0;
}

std::vector<Item> make_items() {
  std::vector<Item> items;
  for (const auto& e : gesp::sparse::testbed()) {
    // bbmat-s alone is a third of the testbed's serial time; see NOTES.md.
    if (e.name == "bbmat-s") continue;
    Item it{e.name, e.discipline, e.make(), {}};
    it.b = ones_rhs(it.A);
    items.push_back(std::move(it));
  }
  return items;
}

}  // namespace

Result run_oneshot_serial(const Config& cfg) {
  Result res;
  gesp::SolverOptions opt;
  opt.num_threads = 1;

  std::vector<Item> items;
  const double setup_s = timed_setup(5, [&] {
    items = make_items();
    // Warm-up: fault in code and allocator pools on one small matrix.
    std::vector<double> x(items[0].b.size());
    gesp::Solver<double>(items[0].A, opt).solve(items[0].b, x);
  });
  const int n = static_cast<int>(items.size());
  const std::vector<int> order = shuffled(n, cfg.seed);

  CountLedger ledger;
  Tracer tracer;
  Tracer* tr = cfg.trace ? &tracer : nullptr;
  std::vector<std::vector<double>> item_s(static_cast<std::size_t>(n));
  std::vector<double> pass_s;
  std::vector<double> overhead;  // per item: traced / untraced - 1
  // Per-layer sums over the traced replay.
  double flops = 0, stored = 0, nsup = 0, fbytes = 0, iters = 0;
  double circ_flops = 0, circ_s = 0, ex11_flops = 0, ex11_s = 0;

  const double t_start = now_s();
  do {
    const double p0 = now_s();
    for (int k : order) {
      const Item& it = items[static_cast<std::size_t>(k)];
      std::vector<double> x(it.b.size());
      std::string why;
      bool wrong = false;
      const double t0 = now_s();
      try {
        gesp::Solver<double> s(it.A, opt);
        s.solve(it.b, x);
        const double t1 = now_s();
        item_s[static_cast<std::size_t>(k)].push_back(t1 - t0);
        why = accuracy_failure(x, s.stats().berr);
        wrong = !why.empty();
        const auto& st = s.stats();
        record_structure(ledger, it.name, st, it.A.ncols, it.A.nnz());
        if (tr) {
          const double r0 = now_s();
          Scope root(tr, "item", k, -1);
          Replay r = replay_factor(it.A, opt, tr, k, root.id());
          replay_solve(r, it.b, opt, tr, k, root.id());
          root.close();
          overhead.push_back((now_s() - r0) / (t1 - t0) - 1);
          const std::string bad = factor_mismatch(s.factors(), *r.lu);
          if (!bad.empty() || r.berr != st.berr)
            throw GateFailure(
                "replay parity gate failed on " + it.name + ": " +
                (bad.empty() ? "berr differs" : bad));
          const double fs = r.factor_s;
          flops += double(r.sym->flops);
          stored += double(r.sym->stored_L + r.sym->stored_U);
          nsup += double(r.sym->nsup);
          fbytes += double(gesp::factor_asset_bytes(
              r.sym->stored_L, r.sym->stored_U, r.sym->nnz_L, r.sym->nnz_U,
              it.A.ncols, it.A.nnz(), sizeof(double), sizeof(double)));
          iters += r.iterations;
          if (is_circuit(it.discipline)) {
            circ_flops += double(r.sym->flops);
            circ_s += fs;
          }
          if (it.name == "ex11-s") {
            ex11_flops += double(r.sym->flops);
            ex11_s += fs;
          }
        }
      } catch (const GateFailure&) {
        throw;
      } catch (const std::exception& e) {
        why = e.what();
      }
      res.item(it.name, why.empty(), why);
      if (wrong) res.correct = false;
    }
    pass_s.push_back(now_s() - p0);
  } while (!cfg.trace && now_s() - t_start < cfg.seconds);

  const auto bad = ledger.check(cfg.counts_path);
  if (!bad.empty())
    throw GateFailure("exact count changed between runs: " + bad[0]);
  res.notes.push_back(
      "av41092-s carries expect_fail in the testbed but is checked like "
      "every other matrix");

  if (!cfg.trace) {
    std::vector<double> per_item;
    for (const auto& v : item_s)
      if (!v.empty()) per_item.push_back(median(v));
    emit_batch_metrics(res, pass_s, per_item, n, setup_s);
    return res;
  }
  const double fac = self_s(tracer, "numeric.factor");
  const double g24 = gemm_probe_gflops(24), g48 = gemm_probe_gflops(48);
  const double rate = fac > 0 ? flops / fac * 1e-9 : 0.0;
  emit_per_layer(
      res, cfg, tracer,
      {{"sparse.equilibrate_s", self_s(tracer, "sparse.equilibrate")},
       {"matching.rowperm_s", self_s(tracer, "matching.rowperm")},
       {"ordering.colorder_s", self_s(tracer, "ordering.colorder")},
       {"core.transform_s", self_s(tracer, "core.transform")},
       {"symbolic.analyze_s", self_s(tracer, "symbolic.analyze")},
       {"symbolic.nsup", nsup},
       {"symbolic.stored_lu", stored},
       {"symbolic.flops", flops},
       {"numeric.factor_s", fac},
       {"numeric.factor_gflops", rate},
       {"numeric.factor_gflops.circuit",
        circ_s > 0 ? circ_flops / circ_s * 1e-9 : 0.0},
       {"numeric.factor_gflops.ex11",
        ex11_s > 0 ? ex11_flops / ex11_s * 1e-9 : 0.0},
       {"numeric.factor_bytes", fbytes},
       {"numeric.peak_frac", rate / std::max(g24, g48)},
       {"dense.gemm_gflops.b24", g24},
       {"dense.gemm_gflops.b48", g48},
       {"refine.trisolve_s", self_s(tracer, "refine.trisolve")},
       {"refine.refine_s", self_s(tracer, "refine.refine")},
       {"refine.iterations", iters / n},
       {"trace.overhead_frac", median(overhead)}});
  return res;
}

}  // namespace perfbench

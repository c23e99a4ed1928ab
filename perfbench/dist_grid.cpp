// dist-2x2: the Table-2 large matrices except bbmat-s (whose replicated
// symbolic analysis would fill the run, and which oneshot-serial times
// serially), each through DistSolver construction and one solve on a 2x2
// in-process MiniMPI grid (four rank threads), pipelined. The only workload
// where dist_lu and minimpi run.
#include <array>
#include <cstring>

#include "dist/dist_solver.hpp"
#include "refine/refine.hpp"
#include "sparse/testbed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;
// Per-matrix times are medians over the passes, three at least, so a pass
// caught in a burst of host load does not move them.
constexpr std::size_t kMinPasses = 3;

struct Item {
  std::string name;
  Matrix A;
  std::vector<double> b;
};

std::vector<Item> make_items() {
  std::vector<Item> items;
  for (const auto& e : gesp::sparse::large_testbed()) {
    if (e.name == "bbmat-s") continue;
    Item it{e.name, e.make(), {}};
    it.b = ones_rhs(it.A);
    items.push_back(std::move(it));
  }
  return items;
}

gesp::SolverOptions dist_options() {
  gesp::SolverOptions o;
  o.backend = gesp::Backend::dist;
  o.dist.pr = 2;
  o.dist.pc = 2;
  o.dist.pipelined = true;
  return o;
}

struct Run {
  std::vector<double> x;
  double berr = 0.0;
  gesp::count_t messages = 0, bytes = 0;
  double solved_at = 0.0;  ///< when every rank had its solution
  double factor_bytes = 0.0;  ///< factor_asset_bytes of the analysed pattern
  Matrix L, U;  ///< gathered factors (parity runs only)
};

/// One DistSolver construction + solve; `gather` also collects the factors
/// on rank 0 after the communication counters are read.
Run solve_dist(const Item& it, const gesp::SolverOptions& opt, bool gather) {
  Run out;
  std::array<gesp::minimpi::CommStats, kRanks> stats{};
  gesp::minimpi::World world(kRanks);
  world.run([&](gesp::minimpi::Comm& comm) {
    gesp::dist::DistSolver<double> s(comm, it.A, opt);
    std::vector<double> x(it.b.size());
    s.solve(comm, it.b, x);
    stats[std::size_t(comm.rank())] = comm.stats();
    comm.barrier();
    if (comm.rank() == 0) out.solved_at = now_s();
    if (gather) {
      Matrix L = s.lu().gather_l(comm), U = s.lu().gather_u(comm);
      if (comm.rank() == 0) {
        out.L = std::move(L);
        out.U = std::move(U);
      }
    }
    if (comm.rank() == 0) {
      out.x = std::move(x);
      out.berr = s.stats().berr;
    }
  });
  for (const auto& c : stats) {
    out.messages += c.messages_sent;
    out.bytes += c.bytes_sent;
  }
  return out;
}

bool same_matrix(const Matrix& a, const Matrix& b) {
  const auto eq = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return a.nrows == b.nrows && a.ncols == b.ncols && eq(a.colptr, b.colptr) &&
         eq(a.rowind, b.rowind) && eq(a.values, b.values);
}

/// DistSolver's pipeline replayed through each layer's public function on
/// every rank: compute_transform → symbolic::analyze → DistributedLU →
/// DistributedLU::solve → refine::iterative_refinement, barrier-separated
/// so each phase's slowest rank is its wall.
Run replay_dist(const Item& it, const gesp::SolverOptions& opt, Tracer& tr,
                long item, int parent, std::array<double, kRanks>& factor_s) {
  Run out;
  gesp::minimpi::World world(kRanks);
  world.run([&](gesp::minimpi::Comm& comm) {
    const int r = comm.rank();
    gesp::TransformResult<double> t;
    {
      Scope s(&tr, "dist.transform", item, parent, r);
      t = gesp::compute_transform(it.A, opt);
    }
    comm.barrier();
    std::shared_ptr<const gesp::symbolic::SymbolicLU> sym;
    {
      Scope s(&tr, "dist.analyze", item, parent, r);
      sym = std::make_shared<const gesp::symbolic::SymbolicLU>(
          gesp::symbolic::analyze(t.At, opt.symbolic));
    }
    comm.barrier();
    std::unique_ptr<gesp::dist::DistributedLU<double>> lu;
    {
      Scope s(&tr, "dist.factor", item, parent, r);
      const double t0 = now_s();
      lu = std::make_unique<gesp::dist::DistributedLU<double>>(
          comm, gesp::dist::grid_from(opt.dist), sym, t.At,
          gesp::dist::make_dist_options(opt, t.At));
      factor_s[std::size_t(r)] = now_s() - t0;
    }
    comm.barrier();
    const gesp::index_t n = t.At.ncols;
    std::vector<double> bhat(static_cast<std::size_t>(n));
    for (gesp::index_t i = 0; i < n; ++i)
      bhat[t.row_perm[i]] = it.b[i] * t.row_scale[i];
    std::vector<double> xhat(bhat.size());
    gesp::refine::RefineResult res;
    {
      Scope s(&tr, "dist.solve", item, parent, r);
      lu->solve(comm, bhat, xhat);
      res = gesp::refine::iterative_refinement<double>(
          t.At, bhat, xhat,
          [&](std::span<double> v) {
            const std::vector<double> rhs(v.begin(), v.end());
            lu->solve(comm, rhs, v);
          },
          opt.refine);
    }
    comm.barrier();
    if (r == 0) out.solved_at = now_s();
    Scope g(&tr, "parity.gather", item, parent, r);
    Matrix L = lu->gather_l(comm), U = lu->gather_u(comm);
    g.close();
    if (r == 0) {
      out.factor_bytes = double(gesp::factor_asset_bytes(
          sym->stored_L, sym->stored_U, sym->nnz_L, sym->nnz_U, n,
          it.A.nnz(), sizeof(double), sizeof(double)));
      out.L = std::move(L);
      out.U = std::move(U);
      out.berr = res.final_berr;
      out.x.resize(static_cast<std::size_t>(n));
      for (gesp::index_t j = 0; j < n; ++j)
        out.x[j] = xhat[t.col_perm[j]] * t.col_scale[j];
    }
  });
  return out;
}

}  // namespace

Result run_dist_2x2(const Config& cfg) {
  Result res;
  const gesp::SolverOptions opt = dist_options();
  std::vector<Item> items;
  const double setup_s = timed_setup(5, [&] {
    items = make_items();
    // Warm-up: spin up one world and run a small matrix through it.
    const Matrix A = gesp::sparse::testbed_entry("cfd2d-a-s").make();
    (void)solve_dist({"cfd2d-a-s", A, ones_rhs(A)}, opt, false);
  });
  const int n = static_cast<int>(items.size());
  const std::vector<int> order = shuffled(n, cfg.seed);

  CountLedger ledger;
  Tracer tracer;
  std::vector<std::vector<double>> item_s(static_cast<std::size_t>(n));
  std::vector<double> pass_s;
  std::vector<double> overhead;  // per item: traced / untraced - 1
  double factor_max = 0, imbalance = 0;
  double messages = 0, bytes = 0, fbytes = 0;

  const double t_start = now_s();
  do {
    const double p0 = now_s();
    for (int k : order) {
      const Item& it = items[static_cast<std::size_t>(k)];
      std::string why;
      bool wrong = false;
      try {
        const double t0 = now_s();
        Run ref = solve_dist(it, opt, cfg.trace);
        const double t1 = ref.solved_at;
        item_s[std::size_t(k)].push_back(t1 - t0);
        why = accuracy_failure(ref.x, ref.berr);
        wrong = !why.empty();
        ledger.set("dist." + it.name + ".messages", ref.messages);
        ledger.set("dist." + it.name + ".bytes", ref.bytes);
        if (cfg.trace) {
          messages += double(ref.messages);
          bytes += double(ref.bytes);
          std::array<double, kRanks> fs{};
          const double r0 = now_s();
          Scope root(&tracer, "item", k, -1);
          Run rep = replay_dist(it, opt, tracer, k, root.id(), fs);
          root.close();
          overhead.push_back((rep.solved_at - r0) / (t1 - t0) - 1);
          fbytes += rep.factor_bytes;
          if (!same_matrix(ref.L, rep.L) || !same_matrix(ref.U, rep.U) ||
              ref.berr != rep.berr)
            throw GateFailure("replay parity gate failed on " + it.name +
                              (ref.berr != rep.berr ? ": berr differs"
                                                    : ": factors differ"));
          double mx = 0, sum = 0;
          for (double f : fs) {
            mx = std::max(mx, f);
            sum += f;
          }
          factor_max += mx;
          imbalance += mx / (sum / kRanks) / n;
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
  } while (!cfg.trace &&
           (pass_s.size() < kMinPasses || now_s() - t_start < cfg.seconds));

  const auto bad = ledger.check(cfg.counts_path);
  if (!bad.empty())
    throw GateFailure("exact count changed between runs: " + bad[0]);

  if (!cfg.trace) {
    std::vector<double> per_item;
    for (const auto& v : item_s)
      if (!v.empty()) per_item.push_back(median(v));
    emit_batch_metrics(res, pass_s, per_item, n, setup_s);
    return res;
  }
  emit_per_layer(
      res, cfg, tracer,
      {{"dist.transform_s", self_s(tracer, "dist.transform")},
       {"dist.analyze_s", self_s(tracer, "dist.analyze")},
       {"dist.factor_s", factor_max},
       {"dist.factor_imbalance", imbalance},
       {"dist.solve_s", self_s(tracer, "dist.solve")},
       {"dist.messages", messages},
       {"dist.bytes", bytes},
       {"numeric.factor_bytes", fbytes},
       {"trace.overhead_frac", median(overhead)}});
  return res;
}

}  // namespace perfbench

// Fused Schur update oracle: every engine's factors must equal the per-pair
// reference loop (update_ref.hpp) bit for bit — fork-join at 1 and 3
// threads, the task DAG, a partial delta re-elimination and the
// distributed engine on 2×2 and 2×3 grids — for double, float and
// Complex (the distributed engine has no float instantiation). The
// matrices are circuit and chemistry testbed entries (tiny supernodes,
// long destination blocks) and the adversarial set with its symbolic
// overrides (wide pinned blocks, near-singular gadgets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_lu.hpp"
#include "dist/minimpi.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/generators.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "test_helpers.hpp"
#include "update_ref.hpp"

namespace gesp {
namespace {

template <class T>
bool same_csc(const sparse::CscMatrix<T>& A, const sparse::CscMatrix<T>& B) {
  return A.colptr == B.colptr && A.rowind == B.rowind &&
         A.values.size() == B.values.size() &&
         std::equal(A.values.begin(), A.values.end(), B.values.begin(),
                    [](const T& x, const T& y) {
                      return std::memcmp(&x, &y, sizeof(T)) == 0;
                    });
}

template <class T>
sparse::CscMatrix<T> with_values(const sparse::CscMatrix<double>& A) {
  if constexpr (std::is_same_v<T, Complex>) {
    return sparse::randomize_phases(A, 17);
  } else {
    sparse::CscMatrix<T> B;
    B.nrows = A.nrows;
    B.ncols = A.ncols;
    B.colptr = A.colptr;
    B.rowind = A.rowind;
    B.values.assign(A.values.begin(), A.values.end());
    return B;
  }
}

std::shared_ptr<const symbolic::SymbolicLU> analyze(
    const sparse::CscMatrix<double>& A, const symbolic::SymbolicOptions& opt) {
  return std::make_shared<const symbolic::SymbolicLU>(
      symbolic::analyze(A, opt));
}

/// Every engine against the per-pair reference on one transformed matrix.
template <class T>
void check_engines(const std::string& name, const sparse::CscMatrix<T>& A,
                   std::shared_ptr<const symbolic::SymbolicLU> sym,
                   double tiny) {
  SCOPED_TRACE(name);
  const auto ref = numeric::ref::factor(*sym, A, tiny);

  numeric::NumericOptions base;
  base.tiny_threshold = tiny;
  struct Run {
    const char* what;
    int threads;
    numeric::Schedule schedule;
  };
  for (const Run run : {Run{"fork-join 1", 1, numeric::Schedule::kForkJoin},
                        Run{"fork-join 3", 3, numeric::Schedule::kForkJoin},
                        Run{"task DAG 3", 3, numeric::Schedule::kTaskDag}}) {
    auto opt = base;
    opt.num_threads = run.threads;
    opt.schedule = run.schedule;
    numeric::LUFactors<T> F(sym, A, opt);
    EXPECT_TRUE(numeric::ref::bitwise_equal(ref, F)) << run.what;
  }

  // Partial delta: factor other values, then re-eliminate the supernodes
  // reached from two changed columns — clean sources replay their
  // updates into the dirty owners.
  {
    auto A0 = A;
    std::vector<char> dirty(static_cast<std::size_t>(sym->nsup), 0);
    for (const index_t j : {index_t{0}, A.ncols / 2}) {
      for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
        A0.values[p] = A0.values[p] * T(1.5);
        dirty[std::min(sym->col_to_sn[A.rowind[p]], sym->col_to_sn[j])] = 1;
      }
    }
    symbolic::close_update_reachable(*sym, dirty);
    for (const int threads : {1, 3}) {
      auto opt = base;
      opt.num_threads = threads;
      numeric::LUFactors<T> F(sym, A0, opt);
      F.refactorize_partial(A, dirty, opt);
      EXPECT_TRUE(numeric::ref::bitwise_equal(ref, F))
          << "partial delta, " << threads << " threads";
    }
  }

  if constexpr (!std::is_same_v<T, float>) {
    numeric::LUFactors<T> serial(sym, A, base);
    ASSERT_TRUE(numeric::ref::bitwise_equal(ref, serial));
    const auto Lser = serial.l_matrix();
    const auto User = serial.u_matrix();
    for (const auto& [pr, pc] : {std::pair{2, 2}, std::pair{2, 3}}) {
      const dist::ProcessGrid grid{pr, pc};
      minimpi::World world(grid.nprocs());
      sparse::CscMatrix<T> L, U;
      world.run([&](minimpi::Comm& comm) {
        dist::DistOptions dopt;
        dopt.tiny_threshold = tiny;
        dist::DistributedLU<T> d(comm, grid, sym, A, dopt);
        auto l = d.gather_l(comm);
        auto u = d.gather_u(comm);
        if (comm.rank() == 0) {
          L = std::move(l);
          U = std::move(u);
        }
      });
      EXPECT_TRUE(same_csc(Lser, L)) << "dist " << pr << "x" << pc;
      EXPECT_TRUE(same_csc(User, U)) << "dist " << pr << "x" << pc;
    }
  }
}

template <class T>
void check_matrix(const std::string& name, const sparse::CscMatrix<double>& A,
                  bool natural_order, index_t max_block) {
  SolverOptions opt;
  if (natural_order) opt.col_order = ColOrderOption::natural;
  if (max_block > 0) opt.symbolic.max_block = max_block;
  const auto tr = compute_transform(A, opt);
  double amax = 0.0;
  for (const double v : tr.At.values) amax = std::max(amax, std::abs(v));
  const double tiny = std::sqrt(std::numeric_limits<double>::epsilon()) * amax;
  check_engines<T>(name, with_values<T>(tr.At), analyze(tr.At, opt.symbolic),
                   tiny);
}

template <class T>
void check_testbed() {
  for (const char* name : {"add20-s", "memplus-s", "qchem-b-s"})
    check_matrix<T>(name, sparse::testbed_entry(name).make(), false, 0);
}

template <class T>
void check_adversarial() {
  for (const auto& e : sparse::adversarial_testbed())
    check_matrix<T>("adv:" + e.name, e.make(), e.natural_order, e.max_block);
}

TEST(UpdateOracle, TestbedDouble) { check_testbed<double>(); }
TEST(UpdateOracle, TestbedFloat) { check_testbed<float>(); }
TEST(UpdateOracle, TestbedComplex) { check_testbed<Complex>(); }
TEST(UpdateOracle, AdversarialDouble) { check_adversarial<double>(); }
TEST(UpdateOracle, AdversarialFloat) { check_adversarial<float>(); }
TEST(UpdateOracle, AdversarialComplex) { check_adversarial<Complex>(); }

// A max_block beyond one k-panel (kKc = 256) sends the update product
// through the tiled kernel's panel split: the fused chunks and the
// per-pair reference must still agree.
TEST(UpdateOracle, DeepSupernodesDouble) {
  symbolic::SymbolicOptions sopt;
  sopt.max_block = 300;
  sopt.relax = 300;
  const auto A = sparse::convdiff2d(24, 24, 1.0, 0.5);
  const auto sym = analyze(A, sopt);
  index_t widest = 0;
  for (index_t K = 0; K < sym->nsup; ++K)
    widest = std::max(widest, sym->block_cols(K));
  ASSERT_GT(widest, 256);
  check_engines<double>("convdiff2d wide", A, sym, 0.0);
}

}  // namespace
}  // namespace gesp

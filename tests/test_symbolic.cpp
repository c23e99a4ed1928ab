// Symbolic factorization tests: exact fill counts against a dense boolean
// elimination oracle, the block structure against the block-replay oracle
// (symbolic_ref.hpp), supernode partition invariants, block-structure
// closure, and the effect of relaxation / max-block splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/testbed.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic_ref.hpp"

namespace gesp::symbolic {
namespace {

using sparse::CooMatrix;
using sparse::CscMatrix;

/// Dense boolean Gaussian elimination with diagonal pivots — the ground
/// truth for the fill pattern of L and U under static pivoting. Returns the
/// column-major pattern of L+U.
std::vector<char> dense_fill(const CscMatrix<double>& A) {
  const index_t n = A.ncols;
  std::vector<char> B(static_cast<std::size_t>(n) * n, 0);
  for (index_t j = 0; j < n; ++j) {
    B[j + j * static_cast<std::size_t>(n)] = 1;  // structural pivot slot
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      B[A.rowind[p] + j * static_cast<std::size_t>(n)] = 1;
  }
  for (index_t k = 0; k < n; ++k)
    for (index_t i = k + 1; i < n; ++i) {
      if (!B[i + k * static_cast<std::size_t>(n)]) continue;
      for (index_t j = k + 1; j < n; ++j)
        if (B[k + j * static_cast<std::size_t>(n)])
          B[i + j * static_cast<std::size_t>(n)] = 1;
    }
  return B;
}

void dense_fill_oracle(const CscMatrix<double>& A, count_t& nnz_l,
                       count_t& nnz_u) {
  const index_t n = A.ncols;
  const std::vector<char> B = dense_fill(A);
  nnz_l = 0;
  nnz_u = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (!B[i + j * static_cast<std::size_t>(n)]) continue;
      if (i >= j) ++nnz_l;
      if (i <= j) ++nnz_u;
    }
}

CscMatrix<double> random_full_diag(index_t n, index_t per_row,
                                   std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    for (index_t k = 0; k < per_row; ++k) {
      const index_t j = rng.next_index(n);
      if (j != i) coo.add(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csc();
}

TEST(Symbolic, ExactFillMatchesDenseOracleRandom) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto A = random_full_diag(60, 3, seed);
    count_t ol = 0, ou = 0;
    dense_fill_oracle(A, ol, ou);
    const auto S = analyze(A, {});
    EXPECT_EQ(S.nnz_L, ol) << "seed " << seed;
    EXPECT_EQ(S.nnz_U, ou) << "seed " << seed;
  }
}

TEST(Symbolic, ExactFillMatchesDenseOracleGrid) {
  const auto A = sparse::convdiff2d(7, 6, 1.0, 0.5);
  count_t ol = 0, ou = 0;
  dense_fill_oracle(A, ol, ou);
  const auto S = analyze(A, {});
  EXPECT_EQ(S.nnz_L, ol);
  EXPECT_EQ(S.nnz_U, ou);
}

TEST(Symbolic, UnrelaxedPartitionIsTheT2RunsOfTheDenseFill) {
  // Without relaxation or splitting, column j starts a new supernode
  // exactly when struct(L(:,j)) != struct(L(:,j-1)) \ {j-1}.
  SymbolicOptions opt;
  opt.relax = 0;
  opt.max_block = 1000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto A = random_full_diag(60, 1 + static_cast<index_t>(seed % 3),
                                    seed);
    const index_t n = A.ncols;
    const std::vector<char> B = dense_fill(A);
    const auto at = [&](index_t i, index_t j) {
      return B[i + j * static_cast<std::size_t>(n)] != 0;
    };
    std::vector<index_t> expect{0};
    for (index_t j = 1; j < n; ++j) {
      bool nested = true;
      for (index_t i = j; i < n && nested; ++i)
        nested = at(i, j) == at(i, j - 1);
      if (!nested) expect.push_back(j);
    }
    expect.push_back(n);
    EXPECT_EQ(analyze(A, opt).sn_start, expect) << "seed " << seed;
  }
}

TEST(Symbolic, TriangularMatrixHasNoFill) {
  const index_t n = 50;
  CooMatrix<double> coo(n, n);
  Rng rng(5);
  count_t nnz_lower = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    for (index_t k = 0; k < 3; ++k) {
      const index_t j = rng.next_index(n);
      if (j < i) {
        coo.add(i, j, 1.0);
      }
    }
  }
  const auto A = coo.to_csc();
  const auto S = analyze(A, {});
  (void)nnz_lower;
  EXPECT_EQ(S.nnz_L, A.nnz());  // L = A's lower triangle incl. diag
  EXPECT_EQ(S.nnz_U, static_cast<count_t>(n));  // U = diagonal only
}

TEST(Symbolic, SupernodePartitionCoversAllColumns) {
  const auto A = sparse::convdiff2d(11, 13, 2.0, 1.0);
  const auto S = analyze(A, {});
  EXPECT_EQ(S.sn_start.front(), 0);
  EXPECT_EQ(S.sn_start.back(), A.ncols);
  for (index_t K = 0; K < S.nsup; ++K) {
    EXPECT_LT(S.sn_start[K], S.sn_start[K + 1]);
    for (index_t j = S.sn_start[K]; j < S.sn_start[K + 1]; ++j)
      EXPECT_EQ(S.col_to_sn[j], K);
  }
}

TEST(Symbolic, MaxBlockSplittingBoundsWidth) {
  const auto A = sparse::device_like(10, 30, 100, 7);
  SymbolicOptions opt;
  opt.max_block = 6;
  const auto S = analyze(A, opt);
  for (index_t K = 0; K < S.nsup; ++K) EXPECT_LE(S.block_cols(K), 6);
}

TEST(Symbolic, RelaxationMergesSmallSupernodes) {
  const auto A = sparse::circuit_like(2000, 5, 10, 9);
  SymbolicOptions none;
  none.relax = 0;
  SymbolicOptions relaxed;
  relaxed.relax = 12;
  const auto S0 = analyze(A, none);
  const auto S1 = analyze(A, relaxed);
  EXPECT_LT(S1.nsup, S0.nsup);       // fewer, larger supernodes
  EXPECT_GE(S1.stored_L, S0.stored_L);  // at the cost of stored zeros
}

TEST(Symbolic, StoredSizesCoverExactFill) {
  const auto A = sparse::convdiff2d(15, 15, 1.0, 0.5);
  const auto S = analyze(A, {});
  EXPECT_GE(S.stored_L, S.nnz_L);
  // U entries inside diagonal blocks live in the L store, so compare the
  // combined stored size against the combined exact fill.
  EXPECT_GE(S.stored_L + S.stored_U, S.nnz_L + S.nnz_U - S.n);
}

TEST(Symbolic, BlockStructureClosedUnderUpdates) {
  // Replay closure property: for every K and every pair (I>K from L, J>K
  // from U), the destination block must exist with a superset pattern.
  const auto A = random_full_diag(300, 4, 11);
  const auto S = analyze(A, {});
  for (index_t K = 0; K < S.nsup; ++K) {
    for (const auto& lb : S.L[K]) {
      for (const auto& ub : S.U[K]) {
        if (lb.I > ub.J) {
          const auto& blocks = S.L[ub.J];
          const auto it = std::find_if(
              blocks.begin(), blocks.end(),
              [&](const LBlock& b) { return b.I == lb.I; });
          ASSERT_NE(it, blocks.end());
          EXPECT_TRUE(std::includes(it->rows.begin(), it->rows.end(),
                                    lb.rows.begin(), lb.rows.end()));
        } else if (lb.I < ub.J) {
          const auto& blocks = S.U[lb.I];
          const auto it = std::find_if(
              blocks.begin(), blocks.end(),
              [&](const UBlock& b) { return b.J == ub.J; });
          ASSERT_NE(it, blocks.end());
          EXPECT_TRUE(std::includes(it->cols.begin(), it->cols.end(),
                                    ub.cols.begin(), ub.cols.end()));
        }
      }
    }
  }
}

TEST(Symbolic, SupernodeEtreeParentsAreLater) {
  const auto A = sparse::convdiff2d(13, 9, 1.5, 0.0);
  const auto S = analyze(A, {});
  for (index_t K = 0; K < S.nsup; ++K) {
    if (S.sn_parent[K] != -1) {
      EXPECT_GT(S.sn_parent[K], K);
    }
  }
}

TEST(Symbolic, FlopsGrowWithFill) {
  const auto A1 = sparse::laplacian2d(10, 10);
  const auto A2 = sparse::laplacian2d(20, 20);
  const auto S1 = analyze(A1, {});
  const auto S2 = analyze(A2, {});
  EXPECT_GT(S2.flops, S1.flops);
  EXPECT_GT(S1.flops, 0);
}

TEST(Symbolic, EtreePostorderKeepsFillInvariant) {
  const auto A = sparse::convdiff2d(12, 12, 1.0, 0.5);
  const auto post = etree_postorder(A);
  const auto B = sparse::permute(A, post, post);
  const auto SA = analyze(A, {});
  const auto SB = analyze(B, {});
  // A topological reordering of the etree does not change the fill.
  EXPECT_EQ(SA.nnz_L, SB.nnz_L);
  EXPECT_EQ(SA.nnz_U, SB.nnz_U);
}

TEST(Symbolic, WideSupernodesOnDenseBlocks) {
  // A block-dense matrix should produce supernodes as wide as max_block.
  const auto A = sparse::device_like(6, 40, 0, 13);
  const auto S = analyze(A, {});
  index_t widest = 0;
  for (index_t K = 0; K < S.nsup; ++K)
    widest = std::max(widest, S.block_cols(K));
  EXPECT_EQ(widest, SymbolicOptions{}.max_block);
}

TEST(Symbolic, StructurallyZeroDiagonalKeepsItsPivotSlot) {
  // A(0,0) is structurally absent. Analysis does not reject it: the pivot
  // slot is stored anyway (the numeric phase's tiny-pivot policy decides
  // what a zero there means), and both counts include it.
  CooMatrix<double> coo(3, 3);
  coo.add(1, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  const auto A = coo.to_csc();
  SymbolicLU S;
  ASSERT_NO_THROW(S = analyze(A, {}));
  EXPECT_EQ(S.nnz_L, 4);  // diagonal (3) + L(1,0)
  EXPECT_EQ(S.nnz_U, 4);  // diagonal (3) + U(0,1)

  // The same on a larger pattern with several diagonal entries removed.
  const auto B = random_full_diag(80, 3, 21);
  CooMatrix<double> holes(B.nrows, B.ncols);
  for (index_t j = 0; j < B.ncols; ++j)
    for (index_t p = B.colptr[j]; p < B.colptr[j + 1]; ++p)
      if (B.rowind[p] != j || j % 7 != 3) holes.add(B.rowind[p], j, 1.0);
  const auto H = holes.to_csc();
  count_t ol = 0, ou = 0;
  dense_fill_oracle(H, ol, ou);
  ASSERT_NO_THROW(S = analyze(H, {}));
  EXPECT_EQ(S.nnz_L, ol);
  EXPECT_EQ(S.nnz_U, ou);
}

// ---------------------------------------------------------------------------
// analyze() against the block-replay oracle: the whole SymbolicLU must be
// identical, not merely closed under the updates.

template <class B>
bool same_blocks(const std::vector<std::vector<B>>& a,
                 const std::vector<std::vector<B>>& b, std::string& where) {
  if (a.size() != b.size()) {
    where = "block list count";
    return false;
  }
  for (std::size_t K = 0; K < a.size(); ++K) {
    bool same = a[K].size() == b[K].size();
    for (std::size_t q = 0; same && q < a[K].size(); ++q) {
      if constexpr (std::is_same_v<B, LBlock>)
        same = a[K][q].I == b[K][q].I && a[K][q].rows == b[K][q].rows;
      else
        same = a[K][q].J == b[K][q].J && a[K][q].cols == b[K][q].cols;
    }
    if (!same) {
      where = "blocks of supernode " + std::to_string(K);
      return false;
    }
  }
  return true;
}

/// Compares S = analyze(A, opt) field by field with the SymbolicLU the
/// block replay builds on S's own partition, and that partition with
/// col_to_sn. (nnz_L and nnz_U are pinned by the dense fill oracle.)
template <class T>
::testing::AssertionResult matches_replay(const CscMatrix<T>& A,
                                          const SymbolicOptions& opt) {
  const SymbolicLU S = analyze(A, opt);
  const ref::BlockStructure R = ref::replay(A, S.sn_start);
  std::string where;
  std::vector<index_t> col_to_sn(static_cast<std::size_t>(S.n));
  for (index_t K = 0; K < S.nsup; ++K)
    for (index_t j = S.sn_start[K]; j < S.sn_start[K + 1]; ++j)
      col_to_sn[j] = K;
  if (S.n != A.ncols) where = "n";
  else if (S.nsup + 1 != static_cast<index_t>(S.sn_start.size()))
    where = "nsup";
  else if (S.col_to_sn != col_to_sn) where = "col_to_sn";
  else if (S.stored_L != R.stored_L) where = "stored_L";
  else if (S.stored_U != R.stored_U) where = "stored_U";
  else if (S.flops != R.flops) where = "flops";
  else if (S.sn_parent != R.sn_parent) where = "sn_parent";
  else if (same_blocks(S.L, R.L, where) && same_blocks(S.U, R.U, where))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "differs from the replay in " << where << " (nsup " << S.nsup
         << ", max_block " << opt.max_block << ", relax " << opt.relax
         << ")";
}

// The testbed cases analyze the matrix the solver hands to analyze():
// equilibrated, row-permuted and symmetrically column-ordered.
TEST(SymbolicOracle, TestbedAtDefaultOptions) {
  const SolverOptions opt;
  for (const auto& e : sparse::testbed())
    EXPECT_TRUE(
        matches_replay(compute_transform(e.make(), opt).At, opt.symbolic))
        << e.name;
}

TEST(SymbolicOracle, LargeEightAtMaxBlock12And48) {
  for (const auto& e : sparse::large_testbed()) {
    const auto At = compute_transform(e.make(), SolverOptions{}).At;
    for (const index_t mb : {12, 48}) {
      SymbolicOptions so;
      so.max_block = mb;
      EXPECT_TRUE(matches_replay(At, so)) << e.name;
    }
  }
}

TEST(SymbolicOracle, AdversarialTestbedWithItsOverrides) {
  for (const auto& e : sparse::adversarial_testbed()) {
    SolverOptions opt;
    if (e.natural_order) opt.col_order = ColOrderOption::natural;
    if (e.max_block > 0) opt.symbolic.max_block = e.max_block;
    EXPECT_TRUE(
        matches_replay(compute_transform(e.make(), opt).At, opt.symbolic))
        << "adv:" << e.name;
  }
}

TEST(SymbolicOracle, ComplexMatrix) {
  const auto A = sparse::randomize_phases(
      sparse::device_like(12, 30, 200, 17), 5);
  EXPECT_TRUE(matches_replay(compute_transform(A, SolverOptions{}).At, {}));
}

TEST(SymbolicOracle, SeededRandomSweep) {
  // Random unsymmetric patterns, etree-postordered as the pipeline does,
  // over the extremes of both partition knobs.
  std::uint64_t seed = 100;
  for (const index_t mb : {1, 2, 5, 24, 1000})
    for (const index_t relax : {0, 1, 4, 8, 64})
      for (const index_t n : {40, 150, 400}) {
        ++seed;
        const auto R =
            random_full_diag(n, 1 + static_cast<index_t>(seed % 4), seed);
        const auto post = etree_postorder(R);
        const auto A = sparse::permute(R, post, post);
        SymbolicOptions so;
        so.max_block = mb;
        so.relax = relax;
        EXPECT_TRUE(matches_replay(A, so)) << "n " << n << " seed " << seed;
      }
}

}  // namespace
}  // namespace gesp::symbolic

// Reference numeric factorization for the Schur update: the serial
// right-looking block elimination (the paper's Figure 8 on one process)
// with one dense product per (L(I,K), U(K,J)) block pair, located and
// scattered pair by pair. It is the per-pair loop the fused
// numeric::block::update_rect replaced — slow, but obviously right — and
// every engine's factors must equal it bit for bit.
//
// Static pivoting only (tiny-pivot replacement, no in-block row swaps):
// the update kernel is the same under every pivot strategy.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/denormal.hpp"
#include "common/error.hpp"
#include "dense/kernels.hpp"
#include "numeric/block_kernels.hpp"
#include "numeric/lu_factors.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::numeric::ref {

/// Factors in LUFactors' packed layout: per supernode K one buffer with
/// the b×b diagonal block followed by the L blocks, one with the U blocks.
template <class T>
struct PairFactors {
  std::vector<std::vector<T>> lnz, unz;
  std::vector<std::vector<std::size_t>> l_off, u_off;

  auto store() {
    return block::BlockStore{
        [this](index_t I) { return lnz[I].data(); },
        [this](index_t J, index_t bi) { return lnz[J].data() + l_off[J][bi]; },
        [this](index_t I, index_t bj) {
          return unz[I].data() + u_off[I][bj];
        }};
  }
};

/// dst(I,J) += -(L(I,K)·U(K,J)) for the (bi, uj) pair of supernode K.
template <class T, class Store>
void update_pair(const symbolic::SymbolicLU& S, index_t K, std::size_t bi,
                 std::size_t uj, const T* lik, const T* ukj,
                 const Store& st) {
  const index_t b = S.block_cols(K);
  const index_t I = S.L[K][bi].I;
  const auto& rows = S.L[K][bi].rows;
  const index_t m = static_cast<index_t>(rows.size());
  const index_t J = S.U[K][uj].J;
  const auto& cols = S.U[K][uj].cols;
  const index_t c = static_cast<index_t>(cols.size());
  thread_local std::vector<T> tmp;
  thread_local std::vector<index_t> pos;
  tmp.resize(static_cast<std::size_t>(m) * c);
  dense::gemm_minus_overwrite(m, c, b, lik, m, ukj, b, tmp.data(), m);
  if (I == J) {
    T* dst = st.diag(I);
    const index_t bI = S.block_cols(I);
    const index_t base = S.sn_start[I];
    for (index_t cc = 0; cc < c; ++cc)
      for (index_t rr = 0; rr < m; ++rr)
        dst[(rows[rr] - base) + (cols[cc] - base) * bI] += tmp[rr + cc * m];
  } else if (I > J) {
    const index_t d = block::find_block(S.L[J], I);
    GESP_ASSERT(d >= 0, "missing destination L block");
    const auto& drows = S.L[J][d].rows;
    block::subset_positions(rows, drows, pos);
    T* dst = st.l(J, d);
    const index_t ld = static_cast<index_t>(drows.size());
    for (index_t cc = 0; cc < c; ++cc)
      for (index_t rr = 0; rr < m; ++rr)
        dst[pos[rr] + (cols[cc] - S.sn_start[J]) * ld] += tmp[rr + cc * m];
  } else {
    const index_t d = block::find_block(S.U[I], J);
    GESP_ASSERT(d >= 0, "missing destination U block");
    block::subset_positions(cols, S.U[I][d].cols, pos);
    T* dst = st.u(I, d);
    const index_t bI = S.block_cols(I);
    for (index_t cc = 0; cc < c; ++cc)
      for (index_t rr = 0; rr < m; ++rr)
        dst[(rows[rr] - S.sn_start[I]) + pos[cc] * bI] += tmp[rr + cc * m];
  }
}

/// Factor A (already permuted and scaled) over `S`, one pair at a time.
template <class T>
PairFactors<T> factor(const symbolic::SymbolicLU& S,
                      const sparse::CscMatrix<T>& A, double tiny_threshold) {
  PairFactors<T> F;
  const index_t N = S.nsup;
  F.lnz.resize(static_cast<std::size_t>(N));
  F.unz.resize(static_cast<std::size_t>(N));
  F.l_off.resize(static_cast<std::size_t>(N));
  F.u_off.resize(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K) {
    const std::size_t b = static_cast<std::size_t>(S.block_cols(K));
    std::size_t sz = b * b;
    for (const auto& blk : S.L[K]) {
      F.l_off[K].push_back(sz);
      sz += blk.rows.size() * b;
    }
    F.lnz[K].assign(sz, T{});
    sz = 0;
    for (const auto& blk : S.U[K]) {
      F.u_off[K].push_back(sz);
      sz += b * blk.cols.size();
    }
    F.unz[K].assign(sz, T{});
  }
  const auto st = F.store();
  for (index_t j = 0; j < S.n; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      *st.at(block::locate(S, A.rowind[p], j)) = A.values[p];

  // Float flushes subnormals during the elimination, as LUFactors does.
  DenormalFlushGuard ftz(std::is_same_v<T, float>);
  dense::PivotPolicy policy;
  policy.tiny_threshold = tiny_threshold;
  dense::PivotStats stats;
  for (index_t K = 0; K < N; ++K) {
    const index_t b = S.block_cols(K);
    T* diag = F.lnz[K].data();
    dense::getrf(diag, b, b, policy, stats);
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const index_t m = static_cast<index_t>(S.L[K][bi].rows.size());
      dense::trsm_right_upper(diag, b, b, F.lnz[K].data() + F.l_off[K][bi],
                              m, m);
    }
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj)
      dense::trsm_left_lower_unit(
          diag, b, b, F.unz[K].data() + F.u_off[K][uj],
          static_cast<index_t>(S.U[K][uj].cols.size()), b);
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi)
      for (std::size_t uj = 0; uj < S.U[K].size(); ++uj)
        update_pair(S, K, bi, uj, F.lnz[K].data() + F.l_off[K][bi],
                    F.unz[K].data() + F.u_off[K][uj], st);
  }
  return F;
}

/// Bitwise equality of LUFactors' storage with the reference, supernode
/// by supernode.
template <class T>
bool bitwise_equal(const PairFactors<T>& R, const LUFactors<T>& F) {
  const auto same = [](const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
  };
  for (index_t K = 0; K < F.sym().nsup; ++K)
    if (!same(R.lnz[K], F.l_store(K)) || !same(R.unz[K], F.u_store(K)))
      return false;
  return true;
}

}  // namespace gesp::numeric::ref

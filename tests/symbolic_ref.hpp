// Reference block structure for the symbolic phase: a literal replay of the
// block right-looking elimination (the paper's Figure 8) on patterns. For
// every supernode K, in order, and every pair (I, J) of its L and U blocks,
// the rows of L(I,K) are merged into L(I,J) when I > J and the columns of
// U(K,J) into U(I,J) when I < J. It walks every update pair, so it is slow
// (tens of millions of pairs on the largest testbed matrices) but obviously
// right; symbolic::analyze must reproduce it exactly.
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::symbolic::ref {

/// The part of a SymbolicLU that depends on the supernode partition.
struct BlockStructure {
  std::vector<std::vector<LBlock>> L;
  std::vector<std::vector<UBlock>> U;
  std::vector<index_t> sn_parent;
  count_t stored_L = 0;
  count_t stored_U = 0;
  count_t flops = 0;
};

template <class T>
BlockStructure replay(const sparse::CscMatrix<T>& A,
                      const std::vector<index_t>& sn_start) {
  const index_t n = A.ncols;
  const index_t nsup = static_cast<index_t>(sn_start.size()) - 1;
  std::vector<index_t> col_to_sn(static_cast<std::size_t>(n));
  for (index_t K = 0; K < nsup; ++K)
    for (index_t j = sn_start[K]; j < sn_start[K + 1]; ++j) col_to_sn[j] = K;
  const auto width = [&](index_t K) -> count_t {
    return sn_start[K + 1] - sn_start[K];
  };

  // Lblk[K]: I -> rows of L(I,K); Ublk[K]: J -> cols of U(K,J).
  std::vector<std::map<index_t, std::vector<index_t>>> Lblk(
      static_cast<std::size_t>(nsup));
  std::vector<std::map<index_t, std::vector<index_t>>> Ublk(
      static_cast<std::size_t>(nsup));
  for (index_t j = 0; j < n; ++j) {
    const index_t J = col_to_sn[j];
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const index_t I = col_to_sn[i];
      if (I > J)
        Lblk[J][I].push_back(i);
      else if (I < J)
        Ublk[I][J].push_back(j);
    }
  }
  const auto normalize = [](std::vector<index_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (index_t K = 0; K < nsup; ++K) {
    for (auto& [I, rows] : Lblk[K]) normalize(rows);
    for (auto& [J, cols] : Ublk[K]) normalize(cols);
  }

  // By iteration K, Lblk[K]/Ublk[K] have received every update (they only
  // come from iterations < K), so they are final when read.
  BlockStructure R;
  std::vector<index_t> merged;
  const auto union_into = [&](std::vector<index_t>& dst,
                              const std::vector<index_t>& src) {
    merged.clear();
    std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                   std::back_inserter(merged));
    if (merged.size() != dst.size()) dst = merged;
  };
  for (index_t K = 0; K < nsup; ++K) {
    const count_t b = width(K);
    R.flops += 2 * b * b * b / 3;
    for (const auto& [I, rows] : Lblk[K])
      R.flops += static_cast<count_t>(rows.size()) * b * b;
    for (const auto& [J, cols] : Ublk[K])
      R.flops += b * b * static_cast<count_t>(cols.size());
    for (const auto& [I, rows] : Lblk[K]) {
      for (const auto& [J, cols] : Ublk[K]) {
        R.flops += 2 * static_cast<count_t>(rows.size()) * b *
                   static_cast<count_t>(cols.size());
        if (I > J)
          union_into(Lblk[J][I], rows);
        else if (I < J)
          union_into(Ublk[I][J], cols);
      }
    }
  }

  R.L.resize(static_cast<std::size_t>(nsup));
  R.U.resize(static_cast<std::size_t>(nsup));
  R.sn_parent.assign(static_cast<std::size_t>(nsup), -1);
  for (index_t K = 0; K < nsup; ++K) {
    const count_t b = width(K);
    R.stored_L += b * b;
    for (auto& [I, rows] : Lblk[K]) {
      R.stored_L += static_cast<count_t>(rows.size()) * b;
      R.L[K].push_back(LBlock{I, std::move(rows)});
    }
    for (auto& [J, cols] : Ublk[K]) {
      R.stored_U += b * static_cast<count_t>(cols.size());
      R.U[K].push_back(UBlock{J, std::move(cols)});
    }
    if (!R.L[K].empty()) R.sn_parent[K] = R.L[K].front().I;
  }
  return R;
}

}  // namespace gesp::symbolic::ref

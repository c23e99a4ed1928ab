// Supernodal block kernels shared by the shared-memory engine
// (numeric::LUFactors) and the distributed one (dist::DistributedLU).
//
// Every decision about where an entry of A, an update product or a factor
// entry sits in the 2-D block layout of the paper's Figure 7 is made here,
// once. The serial factorization is then a 1×1 grid of the same kernel the
// distributed ranks run: the engines differ only in how they reach a
// block's storage, which they hand over as a BlockStore of three callables
//
//   diag(I)     -> T*  the b_I×b_I diagonal block of supernode I
//   l(J, bi)    -> T*  the bi-th L block of block column J, |rows|×b_J
//   u(I, bj)    -> T*  the bj-th U block of block row I,    b_I×|cols|
//
// all column-major. A null pointer marks a block the caller does not own
// (a rank of the distributed engine): the walks skip it, and the update
// kernel is only ever asked to write a block its caller owns. The
// callables are template parameters, so the per-pair path inlines to
// direct pointer arithmetic — no virtual or std::function call.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "dense/kernels.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::numeric::block {

/// Binary search a block list for block index `I`; returns position or -1.
template <class Block>
index_t find_block(const std::vector<Block>& blocks, index_t I) {
  index_t lo = 0, hi = static_cast<index_t>(blocks.size());
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    const index_t key = [&] {
      if constexpr (requires { blocks[mid].I; })
        return blocks[mid].I;
      else
        return blocks[mid].J;
    }();
    if (key < I)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo < static_cast<index_t>(blocks.size())) {
    if constexpr (requires { blocks[lo].I; }) {
      if (blocks[lo].I == I) return lo;
    } else {
      if (blocks[lo].J == I) return lo;
    }
  }
  return -1;
}

/// Position of each element of `sub` inside the sorted superset `full`.
/// A sparse sub in a long full list searches instead of scanning: the
/// linear merge touches every full[] entry up to the last match, which for
/// the typical 2-3-row update into a several-hundred-row destination block
/// is the single most expensive loop of the whole update phase.
inline void subset_positions(std::span<const index_t> sub,
                             std::span<const index_t> full,
                             std::vector<index_t>& pos) {
  pos.resize(sub.size());
  std::size_t q = 0;
  const bool search = sub.size() * 8 < full.size();
  for (std::size_t p = 0; p < sub.size(); ++p) {
    if (search)
      q = static_cast<std::size_t>(
          std::lower_bound(full.begin() + q, full.end(), sub[p]) -
          full.begin());
    else
      while (q < full.size() && full[q] < sub[p]) ++q;
    GESP_ASSERT(q < full.size() && full[q] == sub[p],
                "symbolic structure is not closed under updates");
    pos[p] = static_cast<index_t>(q);
  }
}

/// Which part of supernode `sn`'s storage holds an entry.
enum class Part : unsigned char { diag, l, u };

/// Where one entry lives: block `blk` of S.L[sn] (Part::l) or S.U[sn]
/// (Part::u), or the diagonal block of `sn` (blk = -1), at offset `off`
/// inside that block's column-major storage.
struct BlockEntry {
  Part part;
  index_t sn;
  index_t blk;
  index_t off;
};

/// Locate entry (i, j). It lives in the storage of its OWNER supernode
/// min(sn(i), sn(j)): the diagonal or an L block of column supernode J
/// when sn(i) >= J, a U block of row supernode I when sn(i) < J.
inline BlockEntry locate(const symbolic::SymbolicLU& S, index_t i,
                         index_t j) {
  const index_t I = S.col_to_sn[i];
  const index_t J = S.col_to_sn[j];
  const index_t cj = j - S.sn_start[J];
  if (I == J)
    return {Part::diag, J, -1, (i - S.sn_start[J]) + cj * S.block_cols(J)};
  if (I > J) {
    const index_t bi = find_block(S.L[J], I);
    GESP_ASSERT(bi >= 0, "A entry outside symbolic L structure");
    const auto& rows = S.L[J][bi].rows;
    const auto rit = std::lower_bound(rows.begin(), rows.end(), i);
    GESP_ASSERT(rit != rows.end() && *rit == i,
                "A row missing from symbolic L block");
    const index_t r = static_cast<index_t>(rit - rows.begin());
    return {Part::l, J, bi, r + cj * static_cast<index_t>(rows.size())};
  }
  const index_t bj = find_block(S.U[I], J);
  GESP_ASSERT(bj >= 0, "A entry outside symbolic U structure");
  const auto& cols = S.U[I][bj].cols;
  const auto cit = std::lower_bound(cols.begin(), cols.end(), j);
  GESP_ASSERT(cit != cols.end() && *cit == j,
              "A column missing from symbolic U block");
  const index_t c = static_cast<index_t>(cit - cols.begin());
  return {Part::u, I, bj, (i - S.sn_start[I]) + c * S.block_cols(I)};
}

/// An engine's block storage (see the file comment).
template <class Diag, class LBlk, class UBlk>
struct BlockStore {
  Diag diag;
  LBlk l;
  UBlk u;

  /// Address of a located entry; its block must be owned (non-null).
  auto* at(const BlockEntry& e) const {
    if (e.part == Part::diag) return diag(e.sn) + e.off;
    return (e.part == Part::l ? l(e.sn, e.blk) : u(e.sn, e.blk)) + e.off;
  }
};
template <class Diag, class LBlk, class UBlk>
BlockStore(Diag, LBlk, UBlk) -> BlockStore<Diag, LBlk, UBlk>;

/// One trailing-matrix update of source supernode K: the (bi, uj) block
/// pair, dst(I,J) += -(L(I,K)·U(K,J)), where `lik` is the |rows|×b_K L
/// block and `ukj` the b_K×|cols| U block. The destination is the diagonal
/// block of I (I == J), the L block (I, J) of column J (I > J) or the U
/// block (I, J) of row I (I < J). The product's bits depend only on the
/// operand shapes, so every engine calling this gets the same factors.
template <class T, class Store>
void update_pair(const symbolic::SymbolicLU& S, index_t K, std::size_t bi,
                 std::size_t uj, const T* lik, const T* ukj,
                 const Store& dst_store, std::vector<T>& scratch,
                 std::vector<index_t>& rpos, std::vector<index_t>& cpos) {
  const index_t b = S.block_cols(K);
  const index_t I = S.L[K][bi].I;
  const auto& src_rows = S.L[K][bi].rows;
  const index_t m = static_cast<index_t>(src_rows.size());
  const index_t J = S.U[K][uj].J;
  const auto& src_cols = S.U[K][uj].cols;
  const index_t c = static_cast<index_t>(src_cols.size());
  if (m == 1 && c == 1) {
    // Scalar fast path (dominant when supernodes degenerate to single
    // columns): the 1x1 product still goes through the dense library so the
    // codegen (and thus rounding) is the exact kernel every other engine
    // uses — only the scratch round-trip and subset scatter are skipped.
    const T acc = dense::dot_minus(b, lik, ukj);
    const index_t row = src_rows[0], col = src_cols[0];
    if (I == J) {
      const index_t base = S.sn_start[I];
      dst_store.diag(I)[(row - base) + (col - base) * S.block_cols(I)] += acc;
    } else if (I > J) {
      const index_t dbi = find_block(S.L[J], I);
      GESP_ASSERT(dbi >= 0, "missing destination L block");
      const auto& dst_rows = S.L[J][dbi].rows;
      const auto rit =
          std::lower_bound(dst_rows.begin(), dst_rows.end(), row);
      GESP_ASSERT(rit != dst_rows.end() && *rit == row,
                  "symbolic structure is not closed under updates");
      dst_store.l(J, dbi)[(rit - dst_rows.begin()) +
                          (col - S.sn_start[J]) *
                              static_cast<index_t>(dst_rows.size())] += acc;
    } else {
      const index_t dbj = find_block(S.U[I], J);
      GESP_ASSERT(dbj >= 0, "missing destination U block");
      const auto& dst_cols = S.U[I][dbj].cols;
      const auto cit =
          std::lower_bound(dst_cols.begin(), dst_cols.end(), col);
      GESP_ASSERT(cit != dst_cols.end() && *cit == col,
                  "symbolic structure is not closed under updates");
      dst_store.u(I, dbj)[(row - S.sn_start[I]) +
                          (cit - dst_cols.begin()) * S.block_cols(I)] += acc;
    }
    return;
  }
  // tmp = -(L(I,K) · U(K,J)), m-by-c; the β=0 kernel writes every entry,
  // so no zero-fill pass over the scratch is needed.
  scratch.resize(static_cast<std::size_t>(m) * c);
  dense::gemm_minus_overwrite(m, c, b, lik, m, ukj, b, scratch.data(), m);
  // Scatter-add into the destination block.
  if (I == J) {
    // Diagonal block of supernode I (full storage).
    T* dst = dst_store.diag(I);
    const index_t bI = S.block_cols(I);
    const index_t base = S.sn_start[I];
    if (m == bI) {
      // Rows cover the whole block (a subset of equal size IS the set):
      // contiguous column adds, which vectorize.
      for (index_t cc = 0; cc < c; ++cc) {
        T* dcol = dst + (src_cols[cc] - base) * bI;
        const T* scol = scratch.data() + cc * static_cast<std::size_t>(m);
        for (index_t rr = 0; rr < m; ++rr) dcol[rr] += scol[rr];
      }
      return;
    }
    for (index_t cc = 0; cc < c; ++cc) {
      const index_t dc = src_cols[cc] - base;
      for (index_t rr = 0; rr < m; ++rr)
        dst[(src_rows[rr] - base) + dc * bI] +=
            scratch[rr + cc * static_cast<index_t>(m)];
    }
  } else if (I > J) {
    // L block (I, J): rows are a subset, columns are full width.
    const index_t dbi = find_block(S.L[J], I);
    GESP_ASSERT(dbi >= 0, "missing destination L block");
    const auto& dst_rows = S.L[J][dbi].rows;
    T* dst = dst_store.l(J, dbi);
    const index_t ldd = static_cast<index_t>(dst_rows.size());
    const index_t base = S.sn_start[J];
    if (m == ldd) {
      // Row sets identical: straight vectorizable adds, no position map.
      for (index_t cc = 0; cc < c; ++cc) {
        T* dcol = dst + (src_cols[cc] - base) * ldd;
        const T* scol = scratch.data() + cc * static_cast<std::size_t>(m);
        for (index_t rr = 0; rr < m; ++rr) dcol[rr] += scol[rr];
      }
      return;
    }
    subset_positions(src_rows, dst_rows, rpos);
    for (index_t cc = 0; cc < c; ++cc) {
      const index_t dc = src_cols[cc] - base;
      T* dcol = dst + dc * ldd;
      for (index_t rr = 0; rr < m; ++rr)
        dcol[rpos[rr]] += scratch[rr + cc * static_cast<index_t>(m)];
    }
  } else {
    // U block (I, J): columns are a subset, rows are full height.
    const index_t dbj = find_block(S.U[I], J);
    GESP_ASSERT(dbj >= 0, "missing destination U block");
    const auto& dst_cols = S.U[I][dbj].cols;
    T* dst = dst_store.u(I, dbj);
    const index_t bI = S.block_cols(I);
    const index_t base = S.sn_start[I];
    if (c == static_cast<index_t>(dst_cols.size()) && m == bI) {
      // Columns identical and rows full height: one contiguous add over
      // the whole m-by-c block.
      const std::size_t len = static_cast<std::size_t>(m) * c;
      for (std::size_t x = 0; x < len; ++x) dst[x] += scratch[x];
      return;
    }
    subset_positions(src_cols, dst_cols, cpos);
    for (index_t cc = 0; cc < c; ++cc) {
      T* dcol = dst + cpos[cc] * bI;
      for (index_t rr = 0; rr < m; ++rr)
        dcol[src_rows[rr] - base] +=
            scratch[rr + cc * static_cast<index_t>(m)];
    }
  }
}

/// Supernode K's contribution to max |U|: the upper triangle of its
/// diagonal block plus every U(K,J) block — all final once the panel phase
/// of K is done (later supernodes never write into block row K). The
/// numerator of the pivot-growth estimate; unowned blocks are skipped.
template <class Store>
double u_row_max(const symbolic::SymbolicLU& S, index_t K,
                 const Store& st) {
  using std::abs;
  const index_t b = S.block_cols(K);
  double umax = 0.0;
  if (const auto* d = st.diag(K))
    for (index_t c = 0; c < b; ++c)
      for (index_t r = 0; r <= c; ++r)
        umax = std::max<double>(umax, abs(d[r + c * b]));
  for (std::size_t uj = 0; uj < S.U[K].size(); ++uj)
    if (const auto* blk = st.u(K, static_cast<index_t>(uj))) {
      const std::size_t len =
          static_cast<std::size_t>(b) * S.U[K][uj].cols.size();
      for (std::size_t x = 0; x < len; ++x)
        umax = std::max<double>(umax, abs(blk[x]));
    }
  return umax;
}

/// Walk the stored nonzeros of L below the unit diagonal, emit(i, j, v):
/// per supernode, the strict lower triangle of the diagonal block, then
/// the L blocks. The unit diagonal itself is not emitted.
template <class Store, class Emit>
void for_each_l_entry(const symbolic::SymbolicLU& S, const Store& st,
                      Emit&& emit) {
  using T = std::remove_cvref_t<decltype(*st.diag(0))>;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    if (const auto* d = st.diag(K))
      for (index_t c = 0; c < b; ++c)
        for (index_t r = c + 1; r < b; ++r) {
          const T v = d[r + c * b];
          if (v != T{}) emit(base + r, base + c, v);
        }
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const auto* blk = st.l(K, static_cast<index_t>(bi));
      if (!blk) continue;
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r < m; ++r) {
          const T v = blk[r + c * m];
          if (v != T{}) emit(rows[r], base + c, v);
        }
    }
  }
}

/// Walk the stored entries of U, emit(i, j, v): per supernode, the upper
/// triangle of the diagonal block (the diagonal always, even when zero),
/// then the nonzeros of the U blocks.
template <class Store, class Emit>
void for_each_u_entry(const symbolic::SymbolicLU& S, const Store& st,
                      Emit&& emit) {
  using T = std::remove_cvref_t<decltype(*st.diag(0))>;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    if (const auto* d = st.diag(K))
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r <= c; ++r) {
          const T v = d[r + c * b];
          if (v != T{} || r == c) emit(base + r, base + c, v);
        }
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      const auto* blk = st.u(K, static_cast<index_t>(uj));
      if (!blk) continue;
      const auto& cols = S.U[K][uj].cols;
      for (std::size_t cc = 0; cc < cols.size(); ++cc)
        for (index_t r = 0; r < b; ++r) {
          const T v = blk[r + cc * static_cast<std::size_t>(b)];
          if (v != T{}) emit(base + r, cols[cc], v);
        }
    }
  }
}

}  // namespace gesp::numeric::block

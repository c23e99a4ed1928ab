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
// callables are template parameters, so the update's scatter inlines to
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

/// Position of block index `I` in a sorted block list, or -1. The search
/// gallops forward from `from` before bisecting, so a walk over ascending
/// indices costs O(log gap) per step.
template <class Block>
index_t find_block(const std::vector<Block>& blocks, index_t I,
                   index_t from = 0) {
  const auto key = [&blocks](index_t p) {
    if constexpr (requires { blocks[p].I; })
      return blocks[p].I;
    else
      return blocks[p].J;
  };
  const index_t n = static_cast<index_t>(blocks.size());
  index_t lo = from, hi = from, step = 1;
  while (hi < n && key(hi) < I) {
    lo = hi + 1;
    hi = lo + step;
    step *= 2;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (key(mid) < I)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo < n && key(lo) == I ? lo : -1;
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

/// Entry budget of one worker's fused-update scratch: the packed L rows,
/// the packed U columns and the product chunk each stay within it.
inline constexpr index_t kUpdateBudget = index_t{1} << 15;

/// One worker's scratch for update_rect, reused across calls. Besides the
/// budgeted buffers it holds index arrays of at most one chunk's rows or
/// columns.
template <class T>
struct UpdateScratch {
  /// A run of one source block inside the current chunk: entries
  /// [lo, lo+len) of block `blk` of S.L[K] (rows) or S.U[K] (columns),
  /// at offset `at` of the chunk.
  struct Run {
    index_t blk, lo, len, at;
  };
  std::vector<Run> rows, cols;
  std::vector<T> lpack, upack, prod;
  std::vector<index_t> rpos, cpos;
};

namespace detail {

/// Cut the blocks `sel` (sizes from size_of) into consecutive chunks of at
/// most `cap` entries, splitting a block where it crosses the cap; calls
/// flush(total) with `runs` describing each chunk.
template <class Run, class SizeOf, class Flush>
void for_each_chunk(std::span<const index_t> sel, const SizeOf& size_of,
                    index_t cap, std::vector<Run>& runs, const Flush& flush) {
  runs.clear();
  index_t total = 0;
  for (const index_t blk : sel)
    for (index_t lo = 0, len = size_of(blk); lo < len;) {
      const index_t take = std::min(len - lo, cap - total);
      runs.push_back({blk, lo, take, total});
      total += take;
      lo += take;
      if (total == cap) {
        flush(total);
        runs.clear();
        total = 0;
      }
    }
  if (total > 0) flush(total);
}

/// Add one run of product columns into a destination block: column cc of
/// the run, `len` entries from `src` (stride `lds` between columns), goes
/// to column col(cc) of `dst` (leading dimension `ld`), rows contiguous
/// from `off` when off >= 0, else at rows pos[0..len).
template <class T, class Col>
inline void add_run(T* dst, index_t ld, const Col& col, index_t ncols,
                    const T* src, index_t lds, index_t len, index_t off,
                    const index_t* pos) {
  if (off >= 0) {
    for (index_t cc = 0; cc < ncols; ++cc) {
      T* d = dst + col(cc) * ld + off;
      const T* s = src + cc * lds;
      for (index_t r = 0; r < len; ++r) d[r] += s[r];
    }
  } else {
    for (index_t cc = 0; cc < ncols; ++cc) {
      T* d = dst + col(cc) * ld;
      const T* s = src + cc * lds;
      for (index_t r = 0; r < len; ++r) d[pos[r]] += s[r];
    }
  }
}

/// Rows of run `r` of L block `src` as offsets inside supernode src.I,
/// whose columns hold them in the diagonal and U blocks: the return value
/// is the first offset when they are contiguous (the block holds all of
/// I's rows), else -1 with the offsets in `pos`.
template <class Run>
index_t local_rows(const symbolic::SymbolicLU& S, const symbolic::LBlock& src,
                   const Run& r, std::vector<index_t>& pos) {
  if (static_cast<index_t>(src.rows.size()) == S.block_cols(src.I))
    return r.lo;
  pos.resize(static_cast<std::size_t>(r.len));
  for (index_t rr = 0; rr < r.len; ++rr)
    pos[rr] = src.rows[r.lo + rr] - S.sn_start[src.I];
  return -1;
}

/// Scatter-add the R×C product chunk ws.prod (rows ws.rows, columns
/// ws.cols of source supernode K) into the destination blocks.
template <class T, class Store>
void scatter_chunk(const symbolic::SymbolicLU& S, index_t K, index_t R,
                   const Store& dst, UpdateScratch<T>& ws) {
  const auto& rs = ws.rows;
  const auto& cs = ws.cols;
  const T* prod = ws.prod.data();
  // (a) I >= J: the diagonal block of J or the L block (I, J) of column J.
  // Column runs outer, so one forward pointer walks S.L[J].
  std::size_t r0 = 0;  // first row run with I >= J (both lists ascend)
  for (const auto& c : cs) {
    const index_t J = S.U[K][c.blk].J;
    const index_t* cols = S.U[K][c.blk].cols.data() + c.lo;
    while (r0 < rs.size() && S.L[K][rs[r0].blk].I < J) ++r0;
    const index_t base = S.sn_start[J];
    index_t d = 0;
    for (std::size_t x = r0; x < rs.size(); ++x) {
      const auto& r = rs[x];
      const auto& src = S.L[K][r.blk];
      const std::span<const index_t> rows(src.rows.data() + r.lo,
                                          static_cast<std::size_t>(r.len));
      T* blk;
      index_t ld, off = -1;
      if (src.I == J) {
        blk = dst.diag(J);
        ld = S.block_cols(J);
        off = local_rows(S, src, r, ws.rpos);
      } else {
        d = find_block(S.L[J], src.I, d);
        GESP_ASSERT(d >= 0, "symbolic structure is not closed under updates");
        const auto& drows = S.L[J][d].rows;
        blk = dst.l(J, d);
        ld = static_cast<index_t>(drows.size());
        // Equal-length row lists are the same list (a subset of equal
        // size is the set): no position map.
        if (src.rows.size() == drows.size())
          off = r.lo;
        else
          subset_positions(rows, drows, ws.rpos);
      }
      add_run(
          blk, ld, [cols, base](index_t cc) { return cols[cc] - base; },
          c.len, prod + r.at + c.at * R, R, r.len, off, ws.rpos.data());
    }
  }
  // (b) I < J: the U block (I, J) of row I. Row runs outer, so one forward
  // pointer walks S.U[I].
  std::size_t c0 = 0;  // first column run with J > I
  for (const auto& r : rs) {
    const auto& src = S.L[K][r.blk];
    const index_t I = src.I;
    while (c0 < cs.size() && S.U[K][cs[c0].blk].J <= I) ++c0;
    if (c0 == cs.size()) break;  // later row runs have larger I
    const index_t bI = S.block_cols(I);
    const index_t off = local_rows(S, src, r, ws.rpos);
    index_t d = 0;
    for (std::size_t x = c0; x < cs.size(); ++x) {
      const auto& c = cs[x];
      const auto& ucols = S.U[K][c.blk].cols;
      d = find_block(S.U[I], S.U[K][c.blk].J, d);
      GESP_ASSERT(d >= 0, "symbolic structure is not closed under updates");
      const auto& dcols = S.U[I][d].cols;
      T* blk = dst.u(I, d);
      const T* src = prod + r.at + c.at * R;
      const index_t* rpos = ws.rpos.data();
      if (ucols.size() == dcols.size()) {
        add_run(
            blk, bI, [lo = c.lo](index_t cc) { return lo + cc; }, c.len, src,
            R, r.len, off, rpos);
      } else {
        subset_positions({ucols.data() + c.lo, static_cast<std::size_t>(c.len)},
                         dcols, ws.cpos);
        const index_t* cpos = ws.cpos.data();
        add_run(
            blk, bI, [cpos](index_t cc) { return cpos[cc]; }, c.len, src, R,
            r.len, off, rpos);
      }
    }
  }
}

}  // namespace detail

/// The fused Schur update of source supernode K over one rectangle of
/// block pairs: dst(I,J) += -(L(I,K)·U(K,J)) for every L block in `lsel`
/// and U block in `usel` (ascending positions in S.L[K] and S.U[K]).
/// `lsrc(bi)` returns the |rows|×b_K L block, `usrc(uj)` the b_K×|cols| U
/// block; the destination of a pair is the diagonal block of I (I == J),
/// the L block (I, J) of column J (I > J) or the U block (I, J) of row I
/// (I < J), and every one of them must be owned by the caller.
///
/// The chosen L blocks are packed into one R×b panel (read in place when a
/// chunk is a single block), multiplied by the U columns in chunks — one
/// dense::gemm_minus_overwrite per chunk, U read in place when its blocks
/// are adjacent in memory — and each (I, J) sub-block of the product is
/// scattered through position maps built on the fly. Rows are chunked too
/// when R alone would exceed kUpdateBudget. Each product entry's bits
/// depend only on b_K (dense::gemm_minus_overwrite), so the factors do not
/// depend on how a caller cuts the rectangles: every engine gets the bits
/// of one separate product per block pair.
template <class T, class LSrc, class USrc, class Store>
void update_rect(const symbolic::SymbolicLU& S, index_t K,
                 std::span<const index_t> lsel, const LSrc& lsrc,
                 std::span<const index_t> usel, const USrc& usrc,
                 const Store& dst, UpdateScratch<T>& ws) {
  if (lsel.empty() || usel.empty()) return;
  const index_t b = S.block_cols(K);
  const auto nrows = [&](index_t bi) {
    return static_cast<index_t>(S.L[K][bi].rows.size());
  };
  const auto ncols = [&](index_t uj) {
    return static_cast<index_t>(S.U[K][uj].cols.size());
  };
  detail::for_each_chunk(
      lsel, nrows, std::max<index_t>(1, kUpdateBudget / b), ws.rows,
      [&](index_t R) {
        // L operand: one run is read in place, several are packed R×b.
        const auto& rs = ws.rows;
        const T* a = lsrc(rs[0].blk) + rs[0].lo;
        index_t lda = nrows(rs[0].blk);
        if (rs.size() > 1) {
          ws.lpack.resize(static_cast<std::size_t>(R) * b);
          for (const auto& r : rs) {
            const T* blk = lsrc(r.blk) + r.lo;
            const index_t m = nrows(r.blk);
            for (index_t p = 0; p < b; ++p)
              std::copy_n(blk + p * m, r.len, ws.lpack.data() + r.at + p * R);
          }
          a = ws.lpack.data();
          lda = R;
        }
        detail::for_each_chunk(
            usel, ncols, std::max<index_t>(1, kUpdateBudget / std::max(R, b)),
            ws.cols, [&](index_t C) {
              // U operand: read in place when the runs are adjacent in
              // memory (always so for a packed block row), else packed.
              const auto& cs = ws.cols;
              const T* bm = usrc(cs[0].blk) + cs[0].lo * b;
              bool adjacent = true;
              for (std::size_t x = 1; x < cs.size() && adjacent; ++x)
                adjacent = usrc(cs[x - 1].blk) +
                               (cs[x - 1].lo + cs[x - 1].len) * b ==
                           usrc(cs[x].blk) + cs[x].lo * b;
              if (!adjacent) {
                ws.upack.resize(static_cast<std::size_t>(b) * C);
                for (const auto& c : cs)
                  std::copy_n(usrc(c.blk) + c.lo * b, c.len * b,
                              ws.upack.data() + c.at * b);
                bm = ws.upack.data();
              }
              ws.prod.resize(static_cast<std::size_t>(R) * C);
              dense::gemm_minus_overwrite(R, C, b, a, lda, bm, b,
                                          ws.prod.data(), R);
              detail::scatter_chunk(S, K, R, dst, ws);
            });
      });
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

#include "symbolic/symbolic.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "ordering/etree.hpp"

namespace gesp::symbolic {
namespace {

/// Per-column Gilbert–Peierls symbolic elimination with the diagonal pivot
/// order. Builds the row indices >= j of each L(:,j) (diagonal forced in),
/// accumulates the exact factor counts, and records which consecutive
/// columns have nesting structures (T2 supernode joins). The column
/// patterns themselves are dropped: the block pass rebuilds the supernodal
/// structure from A.
///
/// Speed comes from Eisenstat–Liu symmetric pruning: once a symmetric
/// nonzero pair L(j,k) / U(k,j) exists, rows of L(:,k) beyond j are
/// reachable through column j, so the depth-first searches of later columns
/// traverse only the pruned prefix of column k. Pruning permutes the stored
/// row lists, but only of columns k < j during iteration j, and only after
/// that iteration's T2 test: the test reads L(:,j-1) while it is still
/// sorted.
template <class T>
void gp_symbolic(const sparse::CscMatrix<T>& A, count_t& nnz_L,
                 count_t& nnz_U, std::vector<char>& t2_join) {
  const index_t n = A.ncols;
  std::vector<std::vector<index_t>> Lcols(static_cast<std::size_t>(n));
  t2_join.assign(static_cast<std::size_t>(n), 0);
  nnz_L = 0;
  nnz_U = n;  // U diagonal (the pivots)
  std::vector<index_t> visited(static_cast<std::size_t>(n), -1);
  std::vector<index_t> dfs_len(static_cast<std::size_t>(n), 0);
  std::vector<char> pruned(static_cast<std::size_t>(n), 0);
  std::vector<index_t> stack, pos;  // DFS state
  std::vector<index_t> lrows, ureach;

  for (index_t j = 0; j < n; ++j) {
    lrows.clear();
    ureach.clear();
    visited[j] = j;
    lrows.push_back(j);  // diagonal always stored (static pivot slot)

    auto touch_row = [&](index_t i) {
      // A row below the diagonal extends L(:,j); one above starts a DFS
      // through the columns already factored (the U part of column j).
      if (visited[i] == j) return;
      if (i > j) {
        visited[i] = j;
        lrows.push_back(i);
        return;
      }
      // DFS from column i over the (pruned) graph of L.
      visited[i] = j;
      stack.assign(1, i);
      pos.assign(1, 0);
      ureach.push_back(i);
      while (!stack.empty()) {
        const std::size_t lvl = stack.size() - 1;
        const index_t k = stack[lvl];
        bool descended = false;
        // Indexed access: push_back below may reallocate pos.
        index_t q = pos[lvl];
        while (q < dfs_len[k]) {
          const index_t r = Lcols[k][q];
          ++q;
          if (visited[r] == j) continue;
          visited[r] = j;
          if (r > j) {
            lrows.push_back(r);
          } else if (r < j) {
            ureach.push_back(r);
            pos[lvl] = q;
            stack.push_back(r);
            pos.push_back(0);
            descended = true;
            break;
          }
        }
        if (!descended) {
          stack.pop_back();
          pos.pop_back();
        }
      }
    };

    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      touch_row(A.rowind[p]);

    std::sort(lrows.begin(), lrows.end());
    nnz_L += static_cast<count_t>(lrows.size());
    nnz_U += static_cast<count_t>(ureach.size());
    // Inline T2 test: struct(L(:,j)) == struct(L(:,j-1)) \ {j-1} ?
    if (j > 0 && Lcols[j - 1].size() == lrows.size() + 1)
      t2_join[j] = std::equal(lrows.begin(), lrows.end(),
                              Lcols[j - 1].begin() + 1);
    dfs_len[j] = static_cast<index_t>(lrows.size());
    // An exact-size copy: moving lrows in would keep its push_back slack.
    Lcols[j].assign(lrows.begin(), lrows.end());

    // Symmetric pruning: k has U(k,j) != 0 (k in ureach); if L(j,k) is also
    // nonzero, rows of L(:,k) beyond j are reachable via column j.
    for (index_t k : ureach) {
      if (pruned[k]) continue;
      auto& col = Lcols[k];
      if (!std::binary_search(col.begin(), col.end(), j)) continue;
      const auto mid = std::partition(
          col.begin(), col.end(), [j](index_t r) { return r <= j; });
      dfs_len[k] = static_cast<index_t>(mid - col.begin());
      pruned[k] = 1;
    }
  }
}

/// Partition columns into supernodes: relaxed leaf subtrees of the column
/// etree are amalgamated wholesale; elsewhere a column joins its neighbor
/// when the L structures nest exactly (T2 supernodes, flags precomputed by
/// gp_symbolic); every supernode is split at max_block columns.
std::vector<index_t> partition_supernodes(const std::vector<char>& t2_join,
                                          std::span<const index_t> parent,
                                          const SymbolicOptions& opt) {
  const index_t n = static_cast<index_t>(t2_join.size());
  std::vector<index_t> sn_start;
  if (n == 0) {
    sn_start.push_back(0);
    return sn_start;
  }
  // Relaxed ranges: maximal subtrees of size <= relax. After an etree
  // postorder each subtree is the contiguous range [v-size[v]+1, v].
  const std::vector<index_t> size = ordering::subtree_sizes(parent);
  std::vector<index_t> range_id(static_cast<std::size_t>(n), -1);
  if (opt.relax > 1) {
    for (index_t v = 0; v < n; ++v) {
      if (size[v] > opt.relax) continue;
      const index_t p = parent[v];
      if (p != -1 && size[p] <= opt.relax) continue;  // not maximal
      for (index_t u = v - size[v] + 1; u <= v; ++u) range_id[u] = v;
    }
  }

  sn_start.push_back(0);
  index_t width = 1;
  for (index_t j = 1; j < n; ++j) {
    bool join;
    if (range_id[j] != -1 && range_id[j] == range_id[j - 1]) {
      join = true;  // inside a relaxed subtree
    } else if (range_id[j] != -1 || range_id[j - 1] != -1) {
      join = false;  // crossing a relaxed-range boundary
    } else {
      join = t2_join[j] != 0;
    }
    if (join && width < opt.max_block) {
      ++width;
    } else {
      sn_start.push_back(j);
      width = 1;
    }
  }
  sn_start.push_back(n);
  return sn_start;
}

index_t block_of(const LBlock& b) { return b.I; }
index_t block_of(const UBlock& b) { return b.J; }
const std::vector<index_t>& indices(const LBlock& b) { return b.rows; }
const std::vector<index_t>& indices(const UBlock& b) { return b.cols; }

/// Appends i to `acc` unless `mark` already holds it for block J.
void add_index(index_t i, index_t J, std::vector<index_t>& mark,
               std::vector<index_t>& acc) {
  if (mark[i] == J) return;
  mark[i] = J;
  acc.push_back(i);
}

/// Finishes block column (or row) J of `blocks`: `acc` arrives with A's
/// indices beyond block J, each contributor K adds the indices of its
/// blocks beyond J, and the sorted union is cut into blocks. Returns the
/// total index count.
template <class Block>
count_t pull(std::vector<std::vector<Block>>& blocks, index_t J,
             const std::vector<index_t>& contributors,
             const std::vector<index_t>& sn_start,
             const std::vector<index_t>& col_to_sn,
             std::vector<index_t>& mark, std::vector<index_t>& acc) {
  for (const index_t K : contributors) {
    const auto& tail = blocks[K];
    auto it = std::upper_bound(
        tail.begin(), tail.end(), J,
        [](index_t v, const Block& b) { return v < block_of(b); });
    for (; it != tail.end(); ++it)
      for (const index_t i : indices(*it)) add_index(i, J, mark, acc);
  }
  std::sort(acc.begin(), acc.end());
  for (auto q = acc.begin(); q != acc.end();) {
    const index_t I = col_to_sn[*q];
    const auto e = std::lower_bound(q, acc.end(), sn_start[I + 1]);
    blocks[J].push_back(Block{I, {q, e}});
    q = e;
  }
  return static_cast<count_t>(acc.size());
}

/// Step 3: the block structure of Figure 7, pulled supernode by supernode.
///
/// The right-looking elimination of Figure 8 sends, for each K and each
/// pair of blocks (I, J) of L(:,K) and U(K,:), the rows of L(I,K) into
/// L(I,J) when I > J and the columns of U(K,J) into U(I,J) when I < J.
/// Read from the receiving side: block column J of L is A's part below
/// block J plus, for every K with U(K,J) != 0 (an L-contributor of J), the
/// rows of L(:,K) in blocks > J; block row J of U is the same with the
/// roles swapped. Every contributor K < J is final when J is reached, so
/// one ascending pass over J computes the structure.
///
/// Symmetric pruning at block level keeps the contributor lists short. Let
/// P(K) be the first block present in both L(:,K) and U(K,:). The pairs
/// (I, P(K)) and (P(K), J) put every block of L(:,K) and U(K,:) beyond
/// P(K) into L(:,P(K)) and U(P(K),:). So for J > P(K), P(K) is a
/// contributor of J whose tail contains K's: K is registered only with the
/// blocks up to P(K), and the structure is unchanged.
///
/// The counts follow per K in closed form from the block sizes b, the
/// total rows R of L(:,K) and the total columns C of U(K,:): the update
/// term sum over pairs of 2*rows*b*cols is exactly 2*b*R*C.
template <class T>
void block_structure(const sparse::CscMatrix<T>& A, SymbolicLU& S) {
  const index_t n = S.n, N = S.nsup;
  const std::vector<index_t>& sn = S.col_to_sn;
  // A's entries right of the diagonal blocks, bucketed by block row:
  // ucol[uptr[I] .. uptr[I+1]) holds the columns j of the entries A(i, j)
  // with col_to_sn[i] = I < col_to_sn[j].
  std::vector<index_t> uptr(static_cast<std::size_t>(N) + 1, 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
      if (sn[A.rowind[p]] < sn[j]) ++uptr[sn[A.rowind[p]] + 1];
  for (index_t I = 0; I < N; ++I) uptr[I + 1] += uptr[I];
  std::vector<index_t> ucol(static_cast<std::size_t>(uptr[N]));
  {
    std::vector<index_t> next(uptr.begin(), uptr.end() - 1);
    for (index_t j = 0; j < n; ++j)
      for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
        if (sn[A.rowind[p]] < sn[j]) ucol[next[sn[A.rowind[p]]]++] = j;
  }

  S.L.assign(static_cast<std::size_t>(N), {});
  S.U.assign(static_cast<std::size_t>(N), {});
  S.sn_parent.assign(static_cast<std::size_t>(N), -1);
  // lcontrib[J]: registered K with U(K,J) != 0; ucontrib[I]: with L(I,K).
  std::vector<std::vector<index_t>> lcontrib(static_cast<std::size_t>(N)),
      ucontrib(static_cast<std::size_t>(N));
  std::vector<index_t> lmark(static_cast<std::size_t>(n), -1),
      umark(static_cast<std::size_t>(n), -1);
  std::vector<index_t> acc;

  for (index_t J = 0; J < N; ++J) {
    acc.clear();
    for (index_t j = S.sn_start[J]; j < S.sn_start[J + 1]; ++j)
      for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p)
        if (sn[A.rowind[p]] > J) add_index(A.rowind[p], J, lmark, acc);
    const count_t R =
        pull(S.L, J, lcontrib[J], S.sn_start, sn, lmark, acc);
    acc.clear();
    for (index_t p = uptr[J]; p < uptr[J + 1]; ++p)
      add_index(ucol[p], J, umark, acc);
    const count_t C =
        pull(S.U, J, ucontrib[J], S.sn_start, sn, umark, acc);
    lcontrib[J] = {};
    ucontrib[J] = {};

    // Register J with the blocks up to its pruning point P(J).
    const auto& Lb = S.L[J];
    const auto& Ub = S.U[J];
    index_t P = N;
    for (std::size_t a = 0, c = 0; a < Lb.size() && c < Ub.size();) {
      if (Lb[a].I == Ub[c].J) {
        P = Lb[a].I;
        break;
      }
      if (Lb[a].I < Ub[c].J)
        ++a;
      else
        ++c;
    }
    for (const UBlock& ub : Ub) {
      if (ub.J > P) break;
      lcontrib[ub.J].push_back(J);
    }
    for (const LBlock& lb : Lb) {
      if (lb.I > P) break;
      ucontrib[lb.I].push_back(J);
    }

    // getrf of the diagonal block, trsm of L(:,J) and U(J,:), and the
    // rank-b update of every (I, J') pair.
    const count_t b = S.block_cols(J);
    S.flops += 2 * b * b * b / 3 + R * b * b + b * b * C + 2 * R * b * C;
    S.stored_L += b * b + R * b;  // full diagonal block holds U's triangle
    S.stored_U += b * C;
    if (!Lb.empty()) S.sn_parent[J] = Lb.front().I;
  }
}

}  // namespace

template <class T>
SymbolicLU analyze(const sparse::CscMatrix<T>& A, const SymbolicOptions& opt) {
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "symbolic analysis needs a square matrix");
  GESP_CHECK(opt.max_block >= 1 && opt.relax >= 0, Errc::invalid_argument,
             "bad symbolic options");
  SymbolicLU S;
  S.n = A.ncols;
  if (S.n == 0) {
    S.sn_start.push_back(0);
    return S;
  }

  {
    GESP_TRACE_SPAN("symbolic", "columns");
    // --- 1. exact per-column symbolic.
    std::vector<char> t2_join;
    gp_symbolic(A, S.nnz_L, S.nnz_U, t2_join);

    // --- 2. supernode partition.
    const std::vector<index_t> parent = ordering::column_etree(A);
    S.sn_start = partition_supernodes(t2_join, parent, opt);
    S.nsup = static_cast<index_t>(S.sn_start.size()) - 1;
    S.col_to_sn.resize(static_cast<std::size_t>(S.n));
    for (index_t K = 0; K < S.nsup; ++K)
      for (index_t j = S.sn_start[K]; j < S.sn_start[K + 1]; ++j)
        S.col_to_sn[j] = K;
  }
  // --- 3. block structure, stored sizes, flops and supernodal etree.
  GESP_TRACE_SPAN("symbolic", "blocks");
  block_structure(A, S);
  return S;
}

template <class T>
std::vector<index_t> etree_postorder(const sparse::CscMatrix<T>& A) {
  return ordering::postorder(ordering::column_etree(A));
}

void close_update_reachable(const SymbolicLU& S, std::vector<char>& dirty) {
  GESP_CHECK(dirty.size() == static_cast<std::size_t>(S.nsup),
             Errc::invalid_argument,
             "dirty set size does not match the supernode count");
  for (index_t K = 0; K < S.nsup; ++K) {
    if (!dirty[K]) continue;
    if (S.L[K].empty() || S.U[K].empty()) continue;  // no update pairs
    const index_t maxI = S.L[K].back().I;
    const index_t maxJ = S.U[K].back().J;
    // A pair (I, J) with owner I exists iff some J >= I does (I <= maxJ);
    // symmetrically for owners from the U side.
    for (const auto& blk : S.L[K])
      if (blk.I <= maxJ) dirty[blk.I] = 1;
    for (const auto& blk : S.U[K])
      if (blk.J <= maxI) dirty[blk.J] = 1;
  }
}

template SymbolicLU analyze(const sparse::CscMatrix<double>&,
                            const SymbolicOptions&);
template SymbolicLU analyze(const sparse::CscMatrix<Complex>&,
                            const SymbolicOptions&);
template std::vector<index_t> etree_postorder(const sparse::CscMatrix<double>&);
template std::vector<index_t> etree_postorder(
    const sparse::CscMatrix<Complex>&);

}  // namespace gesp::symbolic

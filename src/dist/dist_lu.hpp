// Distributed-memory sparse LU factorization and triangular solves over
// MiniMPI — the algorithms of the paper's Figures 8 and 9.
//
// Each rank stores only the blocks the 2-D block-cyclic map assigns it.
// Because pivoting is static, every rank holds the (cheap) symbolic
// structure and can compute, without communication, exactly which messages
// it will send and receive — the property the paper's title is about.
//
// Factorization (Fig 8), per iteration K:
//   (1) the process column owning block column K factors the panel
//       (diagonal GETRF + TRSMs), (2) the process row owning block row K
//       forms U(K, K+1:N), (3) L(:,K) travels across process rows and
//       U(K,:) down process columns — pruned to the process columns/rows
//       that actually own an affected trailing block (the EDAG rule) —
//       and every owner applies its rank-b updates through the same
//       supernodal block kernel as the serial engine
//       (numeric/block_kernels.hpp), so the factors are bitwise equal.
//
// With opt.pipelined (the default) the iterations are not executed in
// strict order: each rank runs a message-driven ready-task scheduler with
// look-ahead, so a process column can factor panel K+1 while the trailing
// update of K is still draining — the paper's Fig 8 pipelining. The
// schedule is constrained so every destination block still receives its
// updates in ascending source order, keeping the factors bitwise identical
// to the strict schedule (docs/INTERNALS.md §13).
//
// Triangular solves (Fig 9) are message-driven with the paper's fmod/frecv
// counters and operate on block-cyclic distributed vectors; the upper solve
// pre-builds the per-block-column access lists the paper calls "two
// vertical linked lists".
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dense/kernels.hpp"
#include "dist/grid.hpp"
#include "dist/minimpi.hpp"
#include "sparse/csc.hpp"
#include "symbolic/symbolic.hpp"

namespace gesp::dist {

struct DistOptions {
  bool edag_pruning = true;    ///< prune broadcasts to needed procs only
  bool pipelined = true;       ///< look-ahead task schedule (Fig 8); false
                               ///< replays the strict per-K order
  double tiny_threshold = 0.0; ///< GESP tiny-pivot replacement threshold
};

/// One rank's view of the distributed factorization. Construct inside
/// World::run; the constructor performs the factorization collectively.
template <class T>
class DistributedLU {
 public:
  /// Block-cyclic distributed vector: xb[K] holds the slice for supernode
  /// K iff this rank owns the diagonal block (K, K); empty otherwise.
  using BlockVector = std::vector<std::vector<T>>;

  DistributedLU(minimpi::Comm& comm, const ProcessGrid& grid,
                std::shared_ptr<const symbolic::SymbolicLU> sym,
                const sparse::CscMatrix<T>& A, const DistOptions& opt = {});

  /// Collective message-driven solve of L·U·x = b with block-cyclic
  /// intermediate vectors; b and x are replicated on every rank (the full
  /// solution is written to x on every rank on exit).
  void solve(minimpi::Comm& comm, std::span<const T> b, std::span<T> x);

  /// Re-factorize for a matrix with the SAME nonzero pattern but new
  /// values (the repeated-solve workload the paper amortizes the ordering
  /// over): re-scatter the owned entries and run the factorization again.
  void refactorize(minimpi::Comm& comm, const sparse::CscMatrix<T>& A,
                   const DistOptions& opt);

  /// Distributed-vector entry points (the building blocks of solve() and
  /// of the distributed refinement loop in DistSolver). scatter_vector is
  /// local; the solves and gather are collective.
  void scatter_vector(std::span<const T> full, BlockVector& xb) const;
  void solve_lower_dist(minimpi::Comm& comm, BlockVector& xb) const;
  void solve_upper_dist(minimpi::Comm& comm, BlockVector& xb) const;
  /// Gather a distributed vector onto rank 0 and replicate it everywhere.
  /// Callers must barrier() before this (no other messages in flight).
  void gather_vector(minimpi::Comm& comm, const BlockVector& xb,
                     std::span<T> full) const;

  /// Gather the distributed factors onto rank 0 as explicit matrices for
  /// verification; other ranks receive empty matrices.
  sparse::CscMatrix<T> gather_l(minimpi::Comm& comm) const;
  sparse::CscMatrix<T> gather_u(minimpi::Comm& comm) const;

  const ProcessGrid& grid() const { return grid_; }
  const symbolic::SymbolicLU& sym() const { return *sym_; }
  const DistOptions& options() const { return opt_; }

  /// Local tiny-pivot counters from the last factorization (this rank's
  /// diagonal blocks only; reduce across ranks for the global count).
  const dense::PivotStats& pivot_stats() const { return pivot_stats_; }
  /// Local max |entry| over this rank's U (diagonal upper triangles and
  /// off-diagonal U blocks) — the numerator of the pivot-growth estimate,
  /// the same numeric::block::u_row_max walk LUFactors' growth monitor runs.
  double factor_entry_max() const;
  /// Panel tasks (GETRF / panel TRSM) this rank executed while an
  /// earlier-K trailing update was still pending — the Fig 8 look-ahead
  /// counter. Always 0 when opt.pipelined is false.
  count_t lookahead_hits() const { return lookahead_hits_; }

 private:
  void scatter_initial(const sparse::CscMatrix<T>& A);
  void factorize(minimpi::Comm& comm, const DistOptions& opt);

  ProcessGrid grid_;
  std::shared_ptr<const symbolic::SymbolicLU> sym_;
  DistOptions opt_;
  int myrow_ = 0, mycol_ = 0;
  dense::PivotStats pivot_stats_;
  count_t lookahead_hits_ = 0;

  // Owned storage. diag_[K] nonempty iff this rank owns (K,K).
  // lblocks_[K][bi] nonempty iff this rank owns the bi-th L block of
  // block column K (bi indexes sym_->L[K]); same for ublocks_ over sym_->U.
  std::vector<std::vector<T>> diag_;
  std::vector<std::vector<std::vector<T>>> lblocks_;
  std::vector<std::vector<std::vector<T>>> ublocks_;
};

extern template class DistributedLU<double>;
extern template class DistributedLU<Complex>;

}  // namespace gesp::dist

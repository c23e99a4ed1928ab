// Kernel-equivalence suite: the tiled/blocked GEMM, TRSM and GETRF paths
// against the naive reference loops, for double and Complex, across the
// awkward shapes around the microtile and blocking boundaries (fringes,
// sub-tile sizes, lda > m), plus the exact guarantees the factorization
// relies on: gemm_minus dispatch depends only on shape, gemm_minus_overwrite
// is bitwise equal to zero-fill + gemm_minus, and each entry of the update
// product depends on k alone, not on the shape it was computed in.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dense/kernels.hpp"

namespace gesp::dense {
namespace {

constexpr index_t kShapes[] = {1, 3, 7, 8, 9, 23, 24, 25, 33};

template <class T>
T random_value(Rng& rng) {
  if constexpr (is_complex_v<T>)
    return T{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  else
    return rng.uniform(-1.0, 1.0);
}

template <class T>
std::vector<T> random_buffer(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(len);
  for (auto& x : v) x = random_value<T>(rng);
  return v;
}

template <class T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  using std::abs;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max<double>(worst, abs(a[i] - b[i]));
  return worst;
}

// The tiled path reorders the k-summation, so equivalence is up to
// rounding; entries are O(k) sums of O(1) terms.
double tol(index_t k) { return 1e-13 * (k + 1); }

template <class T>
void check_gemm_all_shapes() {
  for (index_t m : kShapes)
    for (index_t n : kShapes)
      for (index_t k : kShapes) {
        const index_t lda = m + 3, ldb = k + 2, ldc = m + 5;
        const auto A =
            random_buffer<T>(static_cast<std::size_t>(lda) * k, 11);
        const auto B =
            random_buffer<T>(static_cast<std::size_t>(ldb) * n, 22);
        const auto C0 =
            random_buffer<T>(static_cast<std::size_t>(ldc) * n, 33);
        auto c_tiled = C0;
        auto c_ref = C0;
        gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c_tiled.data(),
                   ldc);
        ref::gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c_ref.data(),
                        ldc);
        ASSERT_LT(max_abs_diff(c_tiled, c_ref), tol(k))
            << "m=" << m << " n=" << n << " k=" << k;
      }
}

TEST(GemmEquivalence, DoubleAllShapes) { check_gemm_all_shapes<double>(); }
TEST(GemmEquivalence, ComplexAllShapes) { check_gemm_all_shapes<Complex>(); }

// gemm_minus_overwrite must be *bitwise* equal to zero-filling C and
// running gemm_minus (within one k-panel) — the β=0 form only skips the
// redundant zero-fill of the update product.
template <class T>
void check_overwrite_bitwise() {
  for (index_t m : kShapes)
    for (index_t n : kShapes)
      for (index_t k : kShapes) {
        const index_t lda = m + 1, ldb = k + 4, ldc = m + 2;
        const auto A =
            random_buffer<T>(static_cast<std::size_t>(lda) * k, 44);
        const auto B =
            random_buffer<T>(static_cast<std::size_t>(ldb) * n, 55);
        // Garbage in C proves every entry is written.
        auto c_over =
            random_buffer<T>(static_cast<std::size_t>(ldc) * n, 66);
        auto c_zero = c_over;
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i)
            c_zero[i + j * static_cast<std::size_t>(ldc)] = T{};
        gemm_minus_overwrite(m, n, k, A.data(), lda, B.data(), ldb,
                             c_over.data(), ldc);
        gemm_minus(m, n, k, A.data(), lda, B.data(), ldb, c_zero.data(),
                   ldc);
        for (std::size_t i = 0; i < c_over.size(); ++i)
          ASSERT_EQ(c_over[i], c_zero[i])
              << "m=" << m << " n=" << n << " k=" << k << " at " << i;
      }
}

TEST(GemmOverwrite, BitwiseEqualsZeroFillPlusGemmDouble) {
  check_overwrite_bitwise<double>();
}
TEST(GemmOverwrite, BitwiseEqualsZeroFillPlusGemmComplex) {
  check_overwrite_bitwise<Complex>();
}

// The update product's contract (INTERNALS §10): each entry of
// gemm_minus_overwrite(m, n, k) is bitwise the (1,1,k) product of its own
// row of A and column of B, for every shape, naive or tiled, below and
// above one k-panel (kKc = 256). The fused Schur update chunks a source
// supernode's product differently on every engine; this is why the
// factors still agree bit for bit. Zeros in B exercise the naive loop's
// zero-skip.
template <class T>
void check_entry_depends_on_k_only() {
  const index_t ms[] = {1, 2, 7, 8, 9, 15, 16, 17, 33, 120, 121};
  const index_t ns[] = {1, 2, 3, 4, 5, 6, 7, 13};
  const index_t ks[] = {1, 2, 3, 4, 8, 24, 256, 257, 300};
  for (index_t k : ks) {
    const index_t lda = 121 + 2;
    const auto A = random_buffer<T>(static_cast<std::size_t>(lda) * k, 31);
    auto B = random_buffer<T>(static_cast<std::size_t>(k) * 13, 41);
    for (std::size_t x = 5; x < B.size(); x += 7) B[x] = T{};
    // The (1,1,k) entry of every row i and column j.
    std::vector<T> one(static_cast<std::size_t>(121) * 13);
    for (index_t j = 0; j < 13; ++j)
      for (index_t i = 0; i < 121; ++i)
        gemm_minus_overwrite(index_t{1}, index_t{1}, k, A.data() + i, lda,
                             B.data() + j * static_cast<std::size_t>(k), k,
                             &one[i + j * static_cast<std::size_t>(121)],
                             index_t{1});
    for (index_t m : ms)
      for (index_t n : ns) {
        std::vector<T> c(static_cast<std::size_t>(m) * n);
        gemm_minus_overwrite(m, n, k, A.data(), lda, B.data(), k, c.data(),
                             m);
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) {
            const T got = c[i + j * static_cast<std::size_t>(m)];
            const T want = one[i + j * static_cast<std::size_t>(121)];
            ASSERT_EQ(std::memcmp(&got, &want, sizeof(T)), 0)
                << "m=" << m << " n=" << n << " k=" << k << " at (" << i
                << "," << j << ")";
          }
      }
  }
}

TEST(GemmOverwrite, EntryDependsOnKOnlyDouble) {
  check_entry_depends_on_k_only<double>();
}
TEST(GemmOverwrite, EntryDependsOnKOnlyFloat) {
  check_entry_depends_on_k_only<float>();
}
TEST(GemmOverwrite, EntryDependsOnKOnlyComplex) {
  check_entry_depends_on_k_only<Complex>();
}

TEST(GemmOverwrite, KZeroZeroFills) {
  const index_t m = 9, n = 7, ldc = 12;
  auto c = random_buffer<double>(static_cast<std::size_t>(ldc) * n, 7);
  const auto orig = c;
  gemm_minus_overwrite<double>(m, n, 0, nullptr, 1, nullptr, 1, c.data(),
                               ldc);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < ldc; ++i) {
      const std::size_t p = i + j * static_cast<std::size_t>(ldc);
      if (i < m)
        EXPECT_EQ(c[p], 0.0);
      else
        EXPECT_EQ(c[p], orig[p]);  // padding rows untouched
    }
}

template <class T>
void check_trsm_left() {
  for (index_t b : kShapes)
    for (index_t ncols : kShapes) {
      const index_t lda = b + 2, ldb = b + 3;
      auto L = random_buffer<T>(static_cast<std::size_t>(lda) * b, 77);
      // Unit diagonal is implicit; keep the strict lower part modest.
      const auto B0 =
          random_buffer<T>(static_cast<std::size_t>(ldb) * ncols, 88);
      auto x_blk = B0;
      auto x_ref = B0;
      trsm_left_lower_unit(L.data(), b, lda, x_blk.data(), ncols, ldb);
      ref::trsm_left_lower_unit(L.data(), b, lda, x_ref.data(), ncols, ldb);
      ASSERT_LT(max_abs_diff(x_blk, x_ref), tol(b) * 100)
          << "b=" << b << " ncols=" << ncols;
    }
}

template <class T>
void check_trsm_right() {
  for (index_t b : kShapes)
    for (index_t mrows : kShapes) {
      const index_t lda = b + 1, ldb = mrows + 2;
      auto U = random_buffer<T>(static_cast<std::size_t>(lda) * b, 99);
      for (index_t k = 0; k < b; ++k)
        U[k + k * static_cast<std::size_t>(lda)] += T{4.0};
      const auto B0 =
          random_buffer<T>(static_cast<std::size_t>(ldb) * b, 111);
      auto x_blk = B0;
      auto x_ref = B0;
      trsm_right_upper(U.data(), b, lda, x_blk.data(), mrows, ldb);
      ref::trsm_right_upper(U.data(), b, lda, x_ref.data(), mrows, ldb);
      ASSERT_LT(max_abs_diff(x_blk, x_ref), tol(b) * 100)
          << "b=" << b << " mrows=" << mrows;
    }
}

TEST(TrsmEquivalence, LeftLowerUnitDouble) { check_trsm_left<double>(); }
TEST(TrsmEquivalence, LeftLowerUnitComplex) { check_trsm_left<Complex>(); }
TEST(TrsmEquivalence, RightUpperDouble) { check_trsm_right<double>(); }
TEST(TrsmEquivalence, RightUpperComplex) { check_trsm_right<Complex>(); }

template <class T>
void check_getrf(index_t b) {
  const index_t lda = b + 3;
  auto base = random_buffer<T>(static_cast<std::size_t>(lda) * b, 123);
  for (index_t k = 0; k < b; ++k)
    base[k + k * static_cast<std::size_t>(lda)] += T{static_cast<double>(b)};
  PivotPolicy policy;
  policy.tiny_threshold = 1e-30;
  auto lu_blk = base;
  auto lu_ref = base;
  PivotStats s_blk, s_ref;
  getrf(lu_blk.data(), b, lda, policy, s_blk);
  ref::getrf(lu_ref.data(), b, lda, policy, s_ref);
  EXPECT_EQ(s_blk.replaced, s_ref.replaced);
  ASSERT_LT(max_abs_diff(lu_blk, lu_ref), tol(b) * 100) << "b=" << b;
}

TEST(GetrfEquivalence, BlockedMatchesReferenceDouble) {
  for (index_t b : {index_t{24}, index_t{33}, index_t{48}, index_t{64}})
    check_getrf<double>(b);
}
TEST(GetrfEquivalence, BlockedMatchesReferenceComplex) {
  for (index_t b : {index_t{24}, index_t{33}, index_t{48}, index_t{64}})
    check_getrf<Complex>(b);
}

// Tiny pivots must be detected and counted identically on the blocked path
// (the panel sees the same leading columns as the unblocked elimination).
TEST(GetrfEquivalence, TinyPivotStatsMatchOnBlockedPath) {
  const index_t b = 48;
  auto base = random_buffer<double>(static_cast<std::size_t>(b) * b, 321);
  for (index_t k = 0; k < b; ++k) base[k + k * static_cast<std::size_t>(b)] += b;
  // Zero a column so elimination produces a tiny pivot mid-factorization.
  for (index_t r = 0; r < b; ++r) base[r + 40 * static_cast<std::size_t>(b)] = 0.0;
  PivotPolicy policy;
  policy.tiny_threshold = 1e-8;
  auto lu_blk = base;
  auto lu_ref = base;
  PivotStats s_blk, s_ref;
  std::vector<PivotReplacement<double>> r_blk, r_ref;
  getrf(lu_blk.data(), b, b, policy, s_blk, {}, &r_blk);
  ref::getrf(lu_ref.data(), b, b, policy, s_ref, &r_ref);
  EXPECT_GE(s_blk.replaced, 1);
  EXPECT_EQ(s_blk.replaced, s_ref.replaced);
  ASSERT_EQ(r_blk.size(), r_ref.size());
  for (std::size_t i = 0; i < r_blk.size(); ++i)
    EXPECT_EQ(r_blk[i].col, r_ref[i].col);
}

}  // namespace
}  // namespace gesp::dense

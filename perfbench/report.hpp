// Shared pieces of the perfbench binary: run configuration, the span
// recorder of the traced run, per-item accounting, the exact-count
// self-check, and the one-line JSON result.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/csc.hpp"

namespace perfbench {

using Matrix = gesp::sparse::CscMatrix<double>;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;      ///< trace files
  std::string counts_path;  ///< exact-count record of this code, "" = none
};

/// A broken benchmark invariant (replay parity, exact counts): the run
/// stops with an error instead of printing a result.
struct GateFailure : std::logic_error {
  using std::logic_error::logic_error;
};

/// Seconds on the steady clock since process start of the benchmark.
double now_s();

/// Spans recorded by the benchmark around its calls into each layer. Kept
/// in memory; written once at the end of the traced run. Thread-safe (the
/// rank threads of a MiniMPI world record concurrently).
class Tracer {
 public:
  struct Span {
    std::string name;
    long item = -1;   ///< matrix or request id shared by its spans
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int rank = 0;     ///< MiniMPI rank (0 on single-node workloads)
    double t0 = 0.0, t1 = 0.0;
  };
  /// Per-layer aggregate: self time is a span's duration minus the part of
  /// it its child spans cover; spans of several ranks under one item count
  /// the slowest rank (the phases are separated by barriers).
  struct Layer {
    double self_s = 0.0;
    double total_s = 0.0;
    long count = 0;
  };

  int begin(std::string name, long item, int parent, int rank = 0);
  void end(int idx);
  /// A span whose interval was measured elsewhere (a PhaseTimes entry).
  int add(std::string name, long item, int parent, double t0, double t1,
          int rank = 0);
  std::size_t size() const;
  std::map<std::string, Layer> layers() const;
  /// Measured cost of one begin/end pair, in seconds.
  static double span_cost_s();
  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<std::pair<std::string, double>>& metrics)
      const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* t, std::string name, long item, int parent, int rank = 0)
      : t_(t), idx_(t ? t->begin(std::move(name), item, parent, rank) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return idx_; }
  void close() {
    if (t_ && idx_ >= 0) t_->end(idx_);
    t_ = nullptr;
  }

 private:
  Tracer* t_;
  int idx_;
};

/// The benchmark's verdict and metrics for one run.
struct Result {
  long attempted = 0;
  long failed = 0;
  bool correct = true;  ///< every returned answer passed the accuracy check
  std::vector<std::string> failures;  ///< "name: reason", one per failure
  std::vector<std::string> notes;
  struct Metric {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Count one item; `ok == false` records it as failed with `why`.
  void item(const std::string& name, bool ok, const std::string& why = "");
  /// Print the human-readable summary, then the JSON line, last.
  void print() const;
};

/// test_testbed_solve's bounds against the all-ones solution: forward error
/// <= 1e-6 and berr <= 1e-12. Returns "" when both hold, else the reason.
std::string accuracy_failure(std::span<const double> x, double berr);

/// b = A·1, the right-hand side whose exact solution is all ones.
std::vector<double> ones_rhs(const Matrix& A);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double gmean(const std::vector<double>& v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Exact counts that must repeat from run to run. A key set twice in one
/// run must get the same value (else GateFailure). Every run then checks
/// its counts against the record at `path`, which names the code it was
/// made from (run.py keys it by a hash of the sources), so a change to the
/// code starts a new record instead of failing; a mismatch for the same
/// code is an error, not noise.
class CountLedger {
 public:
  void set(const std::string& key, long long value);
  /// Compares with (and extends) the record at `path` (nothing when `path`
  /// is empty); returns the keys whose values differ, formatted
  /// "key: recorded -> now".
  std::vector<std::string> check(const std::string& path) const;

 private:
  std::map<std::string, long long> counts_;
};

/// Median over `reps` repetitions of `setup` (each call must redo the whole
/// set-up); returns the median seconds.
template <class F>
double timed_setup(int reps, F&& setup) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Deterministic shuffle of [0, n) from the seed.
std::vector<int> shuffled(int n, std::uint64_t seed);

}  // namespace perfbench

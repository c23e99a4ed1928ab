#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <tuple>

#include "common/rng.hpp"
#include "sparse/ops.hpp"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

int Tracer::begin(std::string name, long item, int parent, int rank) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), item, parent, rank, t, t});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int idx) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(idx)].t1 = t;
}

int Tracer::add(std::string name, long item, int parent, double t0, double t1,
                int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), item, parent, rank, t0, t1});
  return static_cast<int>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = spans_.size();
  std::vector<std::vector<std::pair<double, double>>> kids(n);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  // (item, name, rank) -> self / total, then max over ranks per (item, name).
  std::map<std::tuple<long, std::string, int>, Layer> per_rank;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = s.t0, hi = s.t0;
    for (auto [a, b] : iv) {
      a = std::clamp(a, s.t0, s.t1);
      b = std::clamp(b, s.t0, s.t1);
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    Layer& L = per_rank[{s.item, s.name, s.rank}];
    L.self_s += (s.t1 - s.t0) - covered;
    L.total_s += s.t1 - s.t0;
    L.count += 1;
  }
  std::map<std::pair<long, std::string>, Layer> per_item;
  for (const auto& [key, L] : per_rank) {
    Layer& m = per_item[{std::get<0>(key), std::get<1>(key)}];
    m.self_s = std::max(m.self_s, L.self_s);
    m.total_s = std::max(m.total_s, L.total_s);
    m.count += L.count;
  }
  std::map<std::string, Layer> out;
  for (const auto& [key, L] : per_item) {
    Layer& o = out[key.second];
    o.self_s += L.self_s;
    o.total_s += L.total_s;
    o.count += L.count;
  }
  return out;
}

double Tracer::span_cost_s() {
  constexpr int kPairs = 20000;
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer t;
    const double t0 = now_s();
    for (int i = 0; i < kPairs; ++i) {
      Scope s(&t, "probe", i, -1);
    }
    best = std::min(best, (now_s() - t0) / kPairs);
  }
  return best;
}

void Tracer::write_json(
    const std::string& path, const std::string& workload, std::uint64_t seed,
    const std::vector<std::pair<std::string, double>>& metrics) const {
  const auto lay = layers();
  double self_sum = 0.0;
  for (const auto& [name, L] : lay) self_sum += L.self_s;
  std::ofstream f(path);
  f << "{\"workload\": \"" << json_escape(workload) << "\", \"seed\": " << seed
    << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    f << (i ? ", " : "") << "\"" << json_escape(metrics[i].first)
      << "\": " << num(metrics[i].second);
  f << "},\n \"layers\": {";
  bool first = true;
  for (const auto& [name, L] : lay) {
    f << (first ? "" : ",") << "\n  \"" << json_escape(name)
      << "\": {\"self_s\": " << num(L.self_s) << ", \"total_s\": "
      << num(L.total_s) << ", \"count\": " << L.count << ", \"share\": "
      << num(self_sum > 0 ? L.self_s / self_sum : 0.0) << "}";
    first = false;
  }
  f << "},\n \"spans\": [";
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? "," : "") << "\n  [\"" << json_escape(s.name) << "\", "
      << s.item << ", " << s.parent << ", " << s.rank << ", " << num(s.t0)
      << ", " << num(s.t1) << "]";
  }
  f << "]}\n";
}

void Result::item(const std::string& name, bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(name + ": " + why);
  }
}

void Result::print() const {
  for (const auto& n : notes) std::printf("note: %s\n", n.c_str());
  // Failures by name; repeated names (one matrix over several passes) are
  // listed once with a count.
  std::map<std::string, int> by_name;
  for (const auto& f : failures) ++by_name[f];
  for (const auto& [f, c] : by_name)
    std::printf("FAILED x%d %s\n", c, f.c_str());
  for (const auto& m : metrics)
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << "\"" << json_escape(metrics[i].name)
      << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
      << json_escape(metrics[i].unit) << "\"}";
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

std::string accuracy_failure(std::span<const double> x, double berr) {
  const std::vector<double> ones(x.size(), 1.0);
  const double err = gesp::sparse::relative_error_inf<double>(ones, x);
  char buf[96];
  if (!(err <= 1e-6)) {
    std::snprintf(buf, sizeof buf, "forward error %.3g > 1e-6", err);
    return buf;
  }
  if (!(berr <= 1e-12)) {
    std::snprintf(buf, sizeof buf, "berr %.3g > 1e-12", berr);
    return buf;
  }
  return "";
}

std::vector<double> ones_rhs(const Matrix& A) {
  const std::vector<double> ones(static_cast<std::size_t>(A.ncols), 1.0);
  std::vector<double> b(ones.size());
  gesp::sparse::spmv<double>(A, ones, b);
  return b;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double gmean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void CountLedger::set(const std::string& key, long long value) {
  const auto [it, fresh] = counts_.emplace(key, value);
  if (!fresh && it->second != value)
    throw GateFailure("exact count changed within the run: " + key + ": " +
                      std::to_string(it->second) + " -> " +
                      std::to_string(value));
}

std::vector<std::string> CountLedger::check(const std::string& path) const {
  if (path.empty()) return {};
  std::map<std::string, long long> recorded;
  {
    std::ifstream in(path);
    std::string k;
    long long v = 0;
    while (in >> k >> v) recorded[k] = v;
  }
  std::vector<std::string> bad;
  bool grew = false;
  for (const auto& [k, v] : counts_) {
    auto it = recorded.find(k);
    if (it == recorded.end()) {
      recorded[k] = v;
      grew = true;
    } else if (it->second != v) {
      bad.push_back(k + ": " + std::to_string(it->second) + " -> " +
                    std::to_string(v));
    }
  }
  if (grew) {
    std::ofstream out(path);
    for (const auto& [k, v] : recorded) out << k << ' ' << v << '\n';
  }
  return bad;
}

std::vector<int> shuffled(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  gesp::Rng rng(seed);
  for (int i = n - 1; i > 0; --i)
    std::swap(p[static_cast<std::size_t>(i)],
              p[static_cast<std::size_t>(rng.next_index(i + 1))]);
  return p;
}

}  // namespace perfbench

// serve-open: open-loop arrivals at fixed rates into a single-node
// SolverService, from one process. Two service workers plus two sender
// threads fill the four cores. Requests draw from a pool of small testbed
// patterns (each a cold solve under ~30 ms) with skewed popularity and three
// value sets per pattern, drawn uniformly as serve::generate_workload draws
// them; the cache holds fewer entries than there are patterns, so the
// stream mixes value hits (triangular solves + refinement), pattern hits
// (refactorize) and cold misses (full analysis). The only workload where
// the serve queue, batching and cache do the work.
//
// Open-loop honesty: every request has a due time fixed in set-up; a sender
// that is still blocked on an earlier call sends late, and latency is timed
// from the due time, so a stall is charged to every request it delays.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include <malloc.h>

#include "common/rng.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "sparse/generators.hpp"
#include "sparse/testbed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSenders = 2;
constexpr int kWorkers = 2;
constexpr int kValueSets = 3;
constexpr double kLatencyLimitS = 0.250;  // p99 limit for max_rps
constexpr double kDeadlineS = 0.250;      // queue deadline per request
// Fixed offered rates (requests/s): the first is the nominal rate.
constexpr double kRates[] = {40.0, 100.0, 600.0};
constexpr double kSweepS = 2.0;

// Small testbed patterns, most popular first, each a cold solve under
// ~30 ms: a miss then stays inside a sender's 50 ms slot at the nominal rate
// even on a slow host, so one slow miss does not make the next requests late.
const char* const kPool[] = {
    "cfd2d-a-s", "orsirr-s",  "saylr-s", "cfd2d-b-s",  "fidap-a-s",
    "struct-b-s", "add20-s",  "plate-a-s", "mcca-s", "sherman-s",
    "goodwin-s", "cancel-d-s"};
constexpr int kPatterns = sizeof(kPool) / sizeof(kPool[0]);

struct Variant {  // one (pattern, value set)
  int pattern = 0;
  Matrix A;
  std::vector<double> b;
};

struct Request {
  int variant = 0;
  double due = 0.0;  ///< seconds after the phase start
};

struct Outcome {
  double due = 0, sent = 0, done = 0, service_s = 0;
  bool ok = false, expired = false, rejected = false, wrong = false;
  bool value_hit = false, pattern_hit = false, shed = false;
  int batch_width = 0, iterations = 0;
  std::string why;
};

std::vector<Variant> make_pool(std::uint64_t seed) {
  std::vector<Variant> pool;
  for (int p = 0; p < kPatterns; ++p) {
    const Matrix base = gesp::sparse::testbed_entry(kPool[p]).make();
    for (int v = 0; v < kValueSets; ++v) {
      Variant var{p, gesp::serve::perturb_values(
                         base, int((seed * kValueSets + v) % 1000000) + 1),
                  {}};
      var.b = ones_rhs(var.A);
      pool.push_back(std::move(var));
    }
  }
  return pool;
}

/// Fixed-rate stream. Pattern popularity is Zipf(1) over the pool order, an
/// assumed skew (serve::generate_workload draws patterns uniformly): every
/// block of 100 requests holds exactly those proportions and the seed only
/// shuffles each block, so seeds change the order of the mix, not the mix.
/// The value set of each request is drawn uniformly from the seed, as
/// generate_workload draws it.
std::vector<Request> make_stream(double rate, double seconds,
                                 std::uint64_t seed) {
  constexpr int kBlock = 100;
  double tot = 0;
  for (int p = 0; p < kPatterns; ++p) tot += 1.0 / (p + 1);
  std::vector<int> block;
  double acc = 0;
  for (int p = 0; p < kPatterns; ++p) {
    // Cumulative rounding keeps the block at exactly kBlock requests.
    const long before = std::lround(acc / tot * kBlock);
    acc += 1.0 / (p + 1);
    block.insert(block.end(), std::lround(acc / tot * kBlock) - before, p);
  }
  const int n = static_cast<int>(rate * seconds);
  gesp::Rng values(seed);
  std::vector<Request> out;
  for (int b = 0; out.size() < std::size_t(n); ++b) {
    for (int k : shuffled(kBlock, seed * 1000003 + std::uint64_t(b))) {
      if (out.size() == std::size_t(n)) break;
      const int p = block[std::size_t(k)];
      out.push_back({p * kValueSets + int(values.next_index(kValueSets)),
                     double(out.size()) / rate});
    }
  }
  return out;
}

gesp::serve::ServiceOptions service_options() {
  gesp::serve::ServiceOptions o;
  o.backend = gesp::Backend::threaded;
  o.num_workers = kWorkers;
  o.cache_max_entries = 8;  // fewer than the 12 patterns
  o.solver.num_threads = 1;
  return o;
}

/// Run one open-loop phase; spans go under per-request roots when traced.
std::vector<Outcome> run_phase(gesp::serve::SolverService<double>& svc,
                               const std::vector<Variant>& pool,
                               const std::vector<Request>& stream,
                               Tracer* tr, long id_base) {
  std::vector<Outcome> out(stream.size());
  const double start = now_s() + 0.01;
  const auto sender = [&](int who) {
    for (std::size_t i = std::size_t(who); i < stream.size(); i += kSenders) {
      Outcome& o = out[i];
      o.due = start + stream[i].due;
      const double wait = o.due - now_s();
      if (wait > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      o.sent = now_s();
      const long item = id_base + long(i);
      if (tr) tr->add("serve.client_late", item, -1, o.due, o.sent);
      const Variant& v = pool[std::size_t(stream[i].variant)];
      try {
        Scope s(tr, "serve.request", item, -1);
        gesp::serve::RequestOptions ro;
        ro.deadline_s = kDeadlineS;
        const auto r = svc.solve(v.A, v.b, ro);
        o.done = now_s();
        o.service_s = r.latency_s;
        o.value_hit = r.value_hit;
        o.pattern_hit = r.pattern_hit;
        o.shed = r.shed;
        o.batch_width = int(r.batch_width);
        o.iterations = r.refine_iterations;
        o.why = accuracy_failure(r.x, r.berr);
        o.wrong = !o.why.empty();
        o.ok = !o.wrong;
      } catch (const std::exception& e) {
        o.done = now_s();
        o.why = e.what();
        o.expired = o.why.find("deadline expired") != std::string::npos;
        o.rejected = !o.expired;
      }
    }
  };
  std::vector<std::thread> th;
  for (int w = 0; w < kSenders; ++w) th.emplace_back(sender, w);
  for (auto& t : th) t.join();
  return out;
}

struct PhaseStats {
  double rate = 0, achieved = 0, p50 = 0, p99 = 0, gmean = 0, makespan = 0;
  double late_mean = 0, late_tail = 0;
  long sent = 0, ok = 0, rejected = 0, expired = 0, wrong = 0;
  long value_hits = 0, pattern_hits = 0;
  bool meets = false;
};

PhaseStats summarize(double rate, const std::vector<Outcome>& out) {
  PhaseStats s;
  s.rate = rate;
  std::vector<double> lat, late;
  double first = 1e300, last = 0;
  for (const Outcome& o : out) {
    ++s.sent;
    s.ok += o.ok;
    s.rejected += o.rejected;
    s.expired += o.expired;
    s.wrong += o.wrong;
    s.value_hits += o.value_hit;
    s.pattern_hits += o.pattern_hit && !o.value_hit;
    // A failed or refused request misses any limit: count it as infinite.
    lat.push_back(o.ok ? o.done - o.due : 1e9);
    late.push_back(o.sent - o.due);
    first = std::min(first, o.due);
    last = std::max(last, o.done);
  }
  s.p50 = quantile(lat, 0.5);
  s.p99 = quantile(lat, 0.99);
  std::vector<double> okl;
  for (const Outcome& o : out)
    if (o.ok) okl.push_back(o.done - o.due);
  s.gmean = gmean(okl);
  s.makespan = last - first;
  s.achieved = double(s.ok) / s.makespan;
  double sum = 0;
  for (double l : late) sum += l;
  s.late_mean = sum / double(late.size());
  // Backlog check: generator lateness over the last tenth of the phase.
  s.late_tail = median(std::vector<double>(
      late.end() - std::max<long>(1, long(late.size()) / 10), late.end()));
  s.meets = s.p99 <= kLatencyLimitS && s.late_tail <= kLatencyLimitS / 2;
  return s;
}

/// A fresh service, warmed by one closed-loop cold solve per pattern (most
/// common value set), least popular first so the cache starts with the hot
/// patterns.
std::unique_ptr<gesp::serve::SolverService<double>> warm_service(
    const std::vector<Variant>& pool) {
  auto svc = std::make_unique<gesp::serve::SolverService<double>>(
      service_options());
  for (int p = kPatterns - 1; p >= 0; --p) {
    const Variant& v = pool[std::size_t(p * kValueSets)];
    (void)svc->solve(v.A, v.b);
  }
  return svc;
}

}  // namespace

Result run_serve_open(const Config& cfg) {
  Result res;
  std::vector<Variant> pool;
  std::vector<std::vector<Request>> streams;
  // The nominal rate runs for 5 run lengths (1600 requests at 8 s, so p99
  // has 16 samples beyond it), in kRounds rounds, each on a fresh warmed
  // service: one run then samples several thread placements and cache
  // histories instead of one.
  constexpr int kRounds = 8;
  const double nominal_s = 5 * cfg.seconds;
  const double gen_s = timed_setup(3, [&] {
    pool = make_pool(cfg.seed);
    streams.clear();
    for (std::size_t k = 0; k < std::size(kRates); ++k)
      streams.push_back(make_stream(kRates[k], k == 0 ? nominal_s : kSweepS,
                                    cfg.seed * 16 + k));
  });

  Tracer tracer;
  Tracer* tr = cfg.trace ? &tracer : nullptr;
  std::vector<PhaseStats> phases;
  std::vector<Outcome> nominal;
  std::vector<double> warm_s;
  double nominal_wall = 0.0;
  std::size_t cache_bytes = 0;
  std::unique_ptr<gesp::serve::SolverService<double>> svc;
  const std::vector<Request>& nom = streams[0];
  for (int round = 0; round < kRounds; ++round) {
    const double t0 = now_s();
    svc.reset();
    // Hand the previous service's freed heap back to the system, so the
    // peak resident set is one service's, not the sum of the rounds'.
    malloc_trim(0);
    svc = warm_service(pool);
    warm_s.push_back(now_s() - t0);
    const std::size_t lo = nom.size() * std::size_t(round) / kRounds,
                      hi = nom.size() * std::size_t(round + 1) / kRounds;
    std::vector<Request> part(nom.begin() + long(lo), nom.begin() + long(hi));
    for (Request& r : part) r.due -= nom[lo].due;
    auto out = run_phase(*svc, pool, part, tr, long(lo));
    const PhaseStats ps = summarize(kRates[0], out);
    nominal_wall += ps.makespan;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "round %d at %.0f/s: p50 %.3f ms, p99 %.3f ms", round,
                  kRates[0], ps.p50 * 1e3, ps.p99 * 1e3);
    res.notes.push_back(buf);
    nominal.insert(nominal.end(), out.begin(), out.end());
    cache_bytes += svc->cache_bytes() / kRounds;
  }
  phases.push_back(summarize(kRates[0], nominal));
  phases[0].makespan = nominal_wall;
  phases[0].achieved = double(phases[0].ok) / nominal_wall;
  // The sweep: higher rates on the last service until one misses the limit
  // (the traced run replays the nominal rate only).
  for (std::size_t k = 1; k < streams.size() && !cfg.trace; ++k) {
    phases.push_back(
        summarize(kRates[k], run_phase(*svc, pool, streams[k], nullptr, 0)));
    if (!phases.back().meets) break;
  }
  svc->stop();
  const double setup_s = gen_s + median(warm_s);

  for (const PhaseStats& p : phases) {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "rate %.0f/s: sent %ld, succeeded %ld, rejected %ld, "
                  "expired %ld, wrong %ld; value hits %ld, pattern hits "
                  "%ld, misses %ld; "
                  "p50 %.3f ms, p99 %.3f ms; generator late: mean %.3f ms, "
                  "last tenth %.3f ms%s",
                  p.rate, p.sent, p.ok, p.rejected, p.expired, p.wrong,
                  p.value_hits, p.pattern_hits,
                  p.ok + p.wrong - p.value_hits - p.pattern_hits,
                  p.p50 * 1e3, p.p99 * 1e3,
                  p.late_mean * 1e3, p.late_tail * 1e3,
                  p.meets ? "" : "  [misses the limit]");
    res.notes.push_back(buf);
  }
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    const Outcome& o = nominal[i];
    res.item(std::string(kPool[pool[std::size_t(streams[0][i].variant)]
                                   .pattern]),
             o.ok, o.why);
    if (o.wrong) res.correct = false;
  }

  if (!cfg.trace) {
    const PhaseStats& nom = phases[0];
    double max_rps = 0;
    for (const PhaseStats& p : phases)
      if (p.meets) max_rps = p.achieved;
    res.metric("wall_s", nom.makespan, "s");
    res.metric("gmean_ms", nom.gmean * 1e3, "ms");
    res.metric("p50_ms", nom.p50 * 1e3, "ms");
    res.metric("p99_ms", nom.p99 * 1e3, "ms");
    res.metric("max_rps", max_rps, "1/s");
    res.metric("solved_frac",
               double(res.attempted - res.failed) / double(res.attempted),
               "frac");
    res.metric("setup_s", setup_s, "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Service-side view of the nominal phase.
  double n = 0, vh = 0, ph = 0, miss = 0, shed = 0, rej = 0, width = 0,
         iters = 0, late = 0;
  std::vector<double> vh_ms, ph_ms, miss_ms;
  for (const Outcome& o : nominal) {
    ++n;
    late += (o.sent - o.due) * 1e3;
    if (!o.ok && !o.wrong) {
      ++rej;
      continue;
    }
    width += o.batch_width;
    iters += o.iterations;
    shed += o.shed;
    if (o.value_hit) {
      ++vh;
      vh_ms.push_back(o.service_s * 1e3);
    } else if (o.pattern_hit) {
      ++ph;
      ph_ms.push_back(o.service_s * 1e3);
    } else {
      ++miss;
      miss_ms.push_back(o.service_s * 1e3);
    }
  }
  const double served = std::max(1.0, n - rej);
  double req_s = 0;
  for (const Outcome& o : nominal) req_s += o.done - o.due;
  const double overhead =
      Tracer::span_cost_s() * double(tracer.size()) / req_s;

  // Layer replay over the pool: a miss (transform → analyze → factor →
  // solve → refine) on each pattern's first value set, then a pattern hit
  // (re-scale + factor → solve → refine) on each further value set, then a
  // 5% column-window drift through Solver::refactorize_delta, the route the
  // service takes for a pattern hit.
  gesp::SolverOptions opt = service_options().solver;
  double nsup = 0, stored = 0, flops = 0, fbytes = 0;
  double delta_calls = 0, delta_partial = 0;
  for (int p = 0; p < kPatterns; ++p) {
    const Variant& v0 = pool[std::size_t(p * kValueSets)];
    const long item = 2000000000L + p;
    Scope root(tr, "item", item, -1);
    Replay r = replay_factor(v0.A, opt, tr, item, root.id());
    replay_solve(r, v0.b, opt, tr, item, root.id());
    nsup += double(r.sym->nsup);
    stored += double(r.sym->stored_L + r.sym->stored_U);
    flops += double(r.sym->flops);
    fbytes += double(gesp::factor_asset_bytes(
        r.sym->stored_L, r.sym->stored_U, r.sym->nnz_L, r.sym->nnz_U,
        v0.A.ncols, v0.A.nnz(), sizeof(double), sizeof(double)));
    gesp::Solver<double> ref(v0.A, opt);
    std::vector<double> x(v0.b.size());
    ref.solve(v0.b, x);
    const std::string bad = factor_mismatch(ref.factors(), *r.lu);
    if (!bad.empty() || ref.stats().berr != r.berr)
      throw GateFailure(std::string("replay parity gate failed on ") +
                        kPool[p] + ": " + (bad.empty() ? "berr" : bad));
    for (int k = 1; k < kValueSets; ++k) {
      const Variant& v = pool[std::size_t(p * kValueSets + k)];
      {
        Scope c(tr, "core.refactorize", item, root.id());
        r.tr.At = gesp::sparse::permute(
            gesp::sparse::apply_scaling(v.A, r.tr.row_scale,
                                        r.tr.col_scale),
            r.tr.row_perm, r.tr.col_perm);
        Scope f(tr, "numeric.factor", item, c.id());
        r.lu = std::make_unique<gesp::numeric::LUFactors<double>>(
            r.sym, r.tr.At, numeric_options_for(opt, r.at_norm));
      }
      replay_solve(r, v.b, opt, tr, item, root.id());
    }
    const gesp::DeltaStats before = ref.stats().delta;
    const Matrix drift = gesp::sparse::perturb_column_window(
        v0.A, 0.05, 0.2, cfg.seed * 64 + std::uint64_t(p));
    {
      Scope c(tr, "core.refactorize_delta", item, root.id());
      ref.refactorize_delta(drift);
      c.close();
      const double f = ref.stats().times.get("factor"), t1 = now_s();
      tracer.add("numeric.factor", item, c.id(), t1 - f, t1);
    }
    const gesp::DeltaStats& after = ref.stats().delta;
    ++delta_calls;
    delta_partial += double(after.partial - before.partial);
    // Partial and full routes refactor in place: the result must equal a
    // full refactorize of the drifted values, bit for bit.
    if (after.partial + after.full > before.partial + before.full) {
      gesp::Solver<double> full(v0.A, opt);
      full.refactorize(drift);
      const std::string bad = factor_mismatch(ref.factors(), full.factors());
      if (!bad.empty())
        throw GateFailure(std::string("delta parity gate failed on ") +
                          kPool[p] + ": " + bad);
    }
  }
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  emit_per_layer(
      res, cfg, tracer,
      {{"sparse.equilibrate_s", self_s(tracer, "sparse.equilibrate")},
       {"matching.rowperm_s", self_s(tracer, "matching.rowperm")},
       {"ordering.colorder_s", self_s(tracer, "ordering.colorder")},
       {"core.transform_s", self_s(tracer, "core.transform")},
       {"symbolic.analyze_s", self_s(tracer, "symbolic.analyze")},
       {"symbolic.nsup", nsup},
       {"symbolic.stored_lu", stored},
       {"symbolic.flops", flops},
       {"numeric.factor_s", self_s(tracer, "numeric.factor")},
       {"numeric.factor_bytes", fbytes},
       {"core.refactorize_s", total_s(tracer, "core.refactorize")},
       {"core.refactorize_delta_s",
        total_s(tracer, "core.refactorize_delta")},
       {"core.delta_partial_frac", delta_partial / delta_calls},
       {"refine.trisolve_s", self_s(tracer, "refine.trisolve")},
       {"refine.refine_s", self_s(tracer, "refine.refine")},
       {"refine.iterations", iters / served},
       {"serve.value_hit_frac", vh / served},
       {"serve.pattern_hit_frac", ph / served},
       {"serve.miss_frac", miss / served},
       {"serve.batch_width_mean", width / served},
       {"serve.shed_frac", shed / served},
       {"serve.rejected_frac", rej / n},
       {"serve.cache_bytes", double(cache_bytes)},
       {"serve.value_hit_ms", med(vh_ms)},
       {"serve.pattern_hit_ms", med(ph_ms)},
       {"serve.miss_ms", med(miss_ms)},
       {"serve.client_late_ms", late / n},
       {"trace.overhead_frac", overhead}});
  return res;
}

}  // namespace perfbench

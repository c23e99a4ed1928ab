#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "serve/shard.hpp"

namespace gesp::serve {
namespace {

/// Failures the PR-1 recovery ladder can do something about; everything
/// else (bad input, library bug) is rethrown to the client as-is.
bool recoverable(Errc c) noexcept {
  return c == Errc::numerically_singular || c == Errc::unstable;
}

}  // namespace

bool shard_options_set(const ShardOptions& s) noexcept {
  return s.pr != 0 || s.pc != 0 || s.replication != 0 ||
         s.shard_max_entries != 0 || s.shard_max_bytes != 0 ||
         s.fault.armed();
}

template <class T>
SolverService<T>::SolverService(const ServiceOptions& opt)
    : opt_(opt), cache_(opt.cache_max_entries, opt.cache_max_bytes) {
  // ServiceOptions::backend is THE selector; the per-solver field is
  // derived from it so a caller-set solver.backend can never smuggle an
  // engine past the service (the old implicit-split failure mode).
  opt_.solver.backend = opt_.backend;
  opt_.num_workers = std::max(1, opt_.num_workers);
  opt_.max_queue = std::max<std::size_t>(1, opt_.max_queue);
  opt_.max_batch = std::max<index_t>(1, opt_.max_batch);
  eff_max_batch_.store(opt_.max_batch, std::memory_order_relaxed);
  eff_linger_s_.store(opt_.batch_linger_s, std::memory_order_relaxed);
  eff_shed_fraction_.store(opt_.shed_fraction, std::memory_order_relaxed);
  if (opt_.backend == Backend::dist) {
    tier_ = std::make_unique<ShardedTier<T>>(opt_);
    return;  // the tier IS the service (it runs its own gateway adaptation)
  }
  GESP_CHECK(!shard_options_set(opt_.shard), Errc::invalid_argument,
             "SolverService: ShardOptions (grid/replication/shard budgets/"
             "fault injection) require ServiceOptions::backend == "
             "Backend::dist; a single-node backend would silently ignore "
             "them");
  workers_.reserve(static_cast<std::size_t>(opt_.num_workers));
  for (int i = 0; i < opt_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (opt_.adapt) {
    controller_ = std::make_unique<tune::ServeController>(
        tune::ServeKnobs{opt_.max_batch, opt_.batch_linger_s,
                         opt_.shed_fraction},
        opt_.adapt_controller);
    adapt_thread_ = std::thread([this] { adapt_loop(); });
  }
}

template <class T>
SolverService<T>::~SolverService() {
  stop();
}

template <class T>
Response<T> SolverService<T>::solve(const sparse::CscMatrix<T>& A,
                                    std::span<const T> b,
                                    const RequestOptions& ropt) {
  if (tier_) return tier_->solve(A, b, ropt);
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "SolverService::solve: matrix must be square");
  GESP_CHECK(b.size() == static_cast<std::size_t>(A.ncols),
             Errc::invalid_argument,
             "SolverService::solve: b size must equal the matrix dimension");
  auto p = std::make_unique<Pending>();
  p->A = &A;
  // Routing cost, paid once per request on the client thread: one FNV pass
  // over the pattern and one over the values.
  p->key = sparse::pattern_key(A);
  p->vhash = sparse::value_hash(A);
  p->b = b;
  p->enqueued = Clock::now();
  p->deadline = ropt.deadline_s > 0
                    ? p->enqueued + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            ropt.deadline_s))
                    : Clock::time_point::max();
  std::future<Outcome> fut = p->promise.get_future();
  {
    std::lock_guard lk(mu_);
    metrics::global().counter("serve.requests").inc();
    if (stop_) reject("service stopped");
    if (queue_.size() >= opt_.max_queue)
      reject("request queue full; retry later or raise max_queue");
    queue_.push_back(std::move(p));
    metrics::global().counter("serve.admitted").inc();
    window_admitted_.inc();
    const auto depth = static_cast<double>(queue_.size());
    metrics::global().gauge("serve.queue.depth").set(depth);
    trace::counter("serve.queue.depth", depth);
  }
  cv_.notify_all();
  Outcome out = fut.get();
  // Worker-side rejection / solver failure, rethrown on the client thread.
  if (!out.ok) throw Error(out.code, std::move(out.message));
  return std::move(out.resp);
}

template <class T>
void SolverService<T>::warm(const sparse::CscMatrix<T>& A) {
  if (tier_) {
    tier_->warm(A);
    return;
  }
  GESP_CHECK(A.nrows == A.ncols, Errc::invalid_argument,
             "SolverService::warm: matrix must be square");
  bool matched = false;
  auto e = cache_.acquire(A, &matched);
  std::lock_guard elk(e->mu);
  prepare_entry(*e, A, sparse::value_hash(A), /*arm_recovery=*/false,
                /*hostile=*/false);
  cache_.update_bytes(e, entry_bytes(*e->solver, A),
                      e->solver->active_precision());
}

template <class T>
void SolverService<T>::stop() {
  if (tier_) {
    tier_->stop();
    return;
  }
  {
    std::lock_guard lk(adapt_mu_);
    adapt_stop_ = true;
  }
  adapt_cv_.notify_all();
  if (adapt_thread_.joinable()) adapt_thread_.join();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  // The workers drain the queue before exiting; anything still here lost a
  // pop race against shutdown and must not hang its client.
  std::list<PendingPtr> leftover;
  {
    std::lock_guard lk(mu_);
    leftover.swap(queue_);
  }
  for (auto& p : leftover)
    p->promise.set_value(Outcome{{}, false, Errc::overloaded,
                                 "service stopped before execution"});
}

template <class T>
std::size_t SolverService<T>::queue_depth() const {
  if (tier_) return tier_->queue_depth();
  std::lock_guard lk(mu_);
  return queue_.size();
}

template <class T>
std::size_t SolverService<T>::cache_entries() const {
  return tier_ ? tier_->cache_entries() : cache_.entries();
}

template <class T>
std::size_t SolverService<T>::cache_bytes() const {
  return tier_ ? tier_->cache_bytes() : cache_.bytes();
}

template <class T>
std::size_t SolverService<T>::cache_single_bytes() const {
  return tier_ ? 0 : cache_.single_bytes();
}

template <class T>
bool SolverService<T>::is_hostile(const sparse::PatternKey& key) const {
  if (tier_) return false;  // reputation lives shard-side, not aggregated
  std::lock_guard lk(hostile_mu_);
  auto it = hostile_.find(key);
  return it != hostile_.end() && it->second.hostile;
}

template <class T>
bool SolverService<T>::hostile_pattern(const sparse::PatternKey& key) {
  std::lock_guard lk(hostile_mu_);
  auto it = hostile_.find(key);
  if (it == hostile_.end() || !it->second.hostile) return false;
  metrics::global().counter("serve.recovery.hostile_hits").inc();
  return true;
}

template <class T>
void SolverService<T>::note_failed_recovery(const sparse::PatternKey& key) {
  if (opt_.hostile_threshold <= 0) return;
  std::lock_guard lk(hostile_mu_);
  auto& st = hostile_[key];
  ++st.failed_recoveries;
  if (!st.hostile && st.failed_recoveries >= opt_.hostile_threshold) {
    st.hostile = true;
    metrics::global().counter("serve.recovery.hostile_marked").inc();
    trace::instant("serve", "hostile_marked");
  }
}

template <class T>
void SolverService<T>::note_recovered(const sparse::PatternKey& key) {
  std::lock_guard lk(hostile_mu_);
  auto it = hostile_.find(key);
  if (it != hostile_.end() && !it->second.hostile)
    it->second.failed_recoveries = 0;
}

template <class T>
void SolverService<T>::worker_loop() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      collect_matches_locked(batch);
      // Batching knobs come from the effective-knob atomics, not opt_:
      // the adaptive controller may have moved them since construction.
      const index_t max_batch =
          eff_max_batch_.load(std::memory_order_relaxed);
      const double linger_s = eff_linger_s_.load(std::memory_order_relaxed);
      // Linger: hold a non-full batch briefly so concurrent same-
      // factorization arrivals coalesce. Other workers keep draining the
      // queue meanwhile — the lock is released inside wait_until.
      if (max_batch > 1 && linger_s > 0 &&
          static_cast<index_t>(batch.size()) < max_batch && !stop_) {
        const auto linger_until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(linger_s));
        while (static_cast<index_t>(batch.size()) < max_batch &&
               !stop_) {
          if (cv_.wait_until(lk, linger_until) == std::cv_status::timeout) {
            collect_matches_locked(batch);
            break;
          }
          collect_matches_locked(batch);
        }
      }
      const auto depth = static_cast<double>(queue_.size());
      metrics::global().gauge("serve.queue.depth").set(depth);
      trace::counter("serve.queue.depth", depth);
    }
    execute_batch(batch);
  }
}

template <class T>
tune::ServeKnobs SolverService<T>::effective_knobs() const {
  tune::ServeKnobs k;
  k.max_batch = eff_max_batch_.load(std::memory_order_relaxed);
  k.batch_linger_s = eff_linger_s_.load(std::memory_order_relaxed);
  k.shed_fraction = eff_shed_fraction_.load(std::memory_order_relaxed);
  return k;
}

template <class T>
tune::ServeController::Stats SolverService<T>::adapt_stats() const {
  std::lock_guard lk(adapt_mu_);
  return controller_ ? controller_->stats() : tune::ServeController::Stats{};
}

template <class T>
void SolverService<T>::adapt_loop() {
  metrics::RateWindow arrivals(window_admitted_);
  const auto t0 = Clock::now();
  const auto now_s = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  arrivals.tick(now_s());
  const double window_s = std::max(1e-3, opt_.adapt_window_s);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  std::unique_lock lk(adapt_mu_);
  for (;;) {
    if (adapt_cv_.wait_for(lk, window, [this] { return adapt_stop_; }))
      return;
    tune::ControllerInput in;
    in.window_s = window_s;
    in.arrival_rate = arrivals.tick(now_s());
    const auto snap = window_latency_us_.snapshot_and_reset();
    in.completed = snap.count;
    in.p50_us = snap.quantile(0.5);
    in.p99_us = snap.quantile(0.99);
    in.queue_depth = static_cast<double>(queue_depth());
    const tune::ServeKnobs k = controller_->step(in);
    const tune::ServeKnobs prev = effective_knobs();
    eff_max_batch_.store(k.max_batch, std::memory_order_relaxed);
    eff_linger_s_.store(k.batch_linger_s, std::memory_order_relaxed);
    eff_shed_fraction_.store(k.shed_fraction, std::memory_order_relaxed);
    auto& reg = metrics::global();
    reg.gauge("serve.tune.max_batch")
        .set(static_cast<double>(k.max_batch));
    reg.gauge("serve.tune.batch_linger_s").set(k.batch_linger_s);
    reg.gauge("serve.tune.shed_fraction").set(k.shed_fraction);
    reg.gauge("serve.tune.window_p99_us").set(in.p99_us);
    reg.gauge("serve.tune.window_arrival_rate").set(in.arrival_rate);
    const auto& cs = controller_->stats();
    reg.gauge("serve.tune.windows").set(static_cast<double>(cs.windows));
    reg.gauge("serve.tune.trims").set(static_cast<double>(cs.trims));
    reg.gauge("serve.tune.relaxes").set(static_cast<double>(cs.relaxes));
    if (!(k == prev)) {
      reg.counter("serve.tune.adjustments").inc();
      trace::instant("serve", "tune_adjust",
                     static_cast<int>(k.max_batch));
    }
  }
}

template <class T>
void SolverService<T>::collect_matches_locked(Batch& batch) {
  // Coalesce on (pattern key, value hash): 128 combined hash bits, so a
  // cross-matrix collision here is beyond negligible — and the cache layer
  // still validates the pattern arrays exactly before any symbolic reuse.
  const Pending& head = *batch.front();
  const index_t max_batch = eff_max_batch_.load(std::memory_order_relaxed);
  for (auto it = queue_.begin();
       it != queue_.end() && static_cast<index_t>(batch.size()) < max_batch;) {
    if ((*it)->key == head.key && (*it)->vhash == head.vhash) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

template <class T>
void SolverService<T>::execute_batch(Batch& batch) {
  // Last line of defense for the worker thread: nothing may escape here —
  // a stray exception would terminate the process and strand every queued
  // client. Expected failures are mapped inside execute_batch_impl; what
  // remains (bad_alloc sizing the batch buffers, a future_error bug, …)
  // resolves the batch's unfulfilled requests as Errc::internal.
  try {
    execute_batch_impl(batch);
  } catch (const std::exception& ex) {
    fail_unfulfilled(batch, Errc::internal, ex.what());
  } catch (...) {
    fail_unfulfilled(batch, Errc::internal,
                     "unknown exception during batch execution");
  }
}

template <class T>
void SolverService<T>::fail_unfulfilled(Batch& batch, Errc code,
                                        const char* msg) {
  for (auto& p : batch) {
    if (!p) continue;  // resolved already — every resolution nulls its slot
    p->promise.set_value(Outcome{{}, false, code, msg});
    p.reset();
  }
}

template <class T>
void SolverService<T>::execute_batch_impl(Batch& batch) {
  GESP_TRACE_SPAN("serve", "batch");
  // Deadline check happens at execution start: a request that waited past
  // its budget is shed instead of solved late.
  const auto now = Clock::now();
  // The slots in `batch` remain the owners; `live` points at the not-yet-
  // resolved ones. Every promise resolution nulls its slot, so the failure
  // paths below (and the catch-all in execute_batch) can never touch a
  // promise twice — set_value on a satisfied promise throws future_error.
  std::vector<PendingPtr*> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p->deadline < now) {
      metrics::global().counter("serve.deadline_expired").inc();
      metrics::global().counter("serve.rejected").inc();
      trace::instant("serve", "deadline_expired");
      p->promise.set_value(
          Outcome{{}, false, Errc::overloaded,
                  "deadline expired while queued; the service is "
                  "overloaded or the deadline was too tight"});
      p.reset();
    } else {
      live.push_back(&p);
    }
  }
  if (live.empty()) return;

  // Graceful degradation: with the queue mostly full, skip iterative
  // refinement — one static-pivot triangular solve per request is the
  // cheapest answer GESP can give, and berr is still measured once.
  const bool shed =
      opt_.shed_refinement &&
      queue_depth() >= static_cast<std::size_t>(
                           eff_shed_fraction_.load(std::memory_order_relaxed) *
                           static_cast<double>(opt_.max_queue));
  refine::RefineOptions shed_refine = opt_.solver.refine;
  shed_refine.max_iters = 0;
  const refine::RefineOptions* ov = shed ? &shed_refine : nullptr;

  // One hostile snapshot per batch (every live request shares the pattern
  // key — that is what collect_matches_locked coalesces on). A hostile
  // pattern's cold build arms the ladder at the strongest rung up front,
  // so a failure there gets no evict-and-retry: the retry would only
  // repeat the same strongest-rung attempt.
  const sparse::PatternKey bkey = (*live.front())->key;
  const bool hostile = hostile_pattern(bkey);

  for (int attempt = 0;; ++attempt) {
    // Re-derived each attempt: a per_column batch can be partially
    // fulfilled before a recoverable failure, and a fulfilled request's
    // matrix (client-owned, borrowed) may already be out of scope — so
    // never reach through a resolved slot.
    const sparse::CscMatrix<T>& A = *(*live.front())->A;
    const std::uint64_t vhash = (*live.front())->vhash;
    const auto n = static_cast<std::size_t>(A.ncols);
    const auto width = static_cast<index_t>(live.size());

    bool pattern_matched = false;
    auto e = cache_.acquire(A, &pattern_matched);
    std::unique_lock elk(e->mu);
    try {
      Response<T> tmpl =
          prepare_entry(*e, A, vhash, attempt > 0, hostile);
      tmpl.backend = opt_.backend;
      tmpl.shed = shed;
      tmpl.recovered = attempt > 0;
      tmpl.hostile = hostile;
      tmpl.batch_width = width;
      tmpl.precision = e->solver->active_precision();
      cache_.update_bytes(e, entry_bytes(*e->solver, A),
                          tmpl.precision);

      std::vector<std::vector<T>> xs(live.size());
      if (opt_.batch_mode == BatchMode::blocked && live.size() > 1) {
        GESP_TRACE_SPAN_ID("serve", "solve", width);
        std::vector<T> B(n * live.size()), X(n * live.size());
        for (std::size_t j = 0; j < live.size(); ++j)
          std::copy((*live[j])->b.begin(), (*live[j])->b.end(),
                    B.begin() + static_cast<std::ptrdiff_t>(j * n));
        e->solver->solve_multi(B, X, width, ov);
        tmpl.precision = e->solver->active_precision();
        tmpl.berr = e->solver->stats().berr;
        tmpl.refine_iterations = e->solver->stats().refine_iterations;
        // Read the trail after the solves: the ladder can also escalate
        // on a berr stall inside solve(), not just during factorization.
        tmpl.recovery = e->solver->stats().recovery;
        for (std::size_t j = 0; j < live.size(); ++j)
          xs[j].assign(X.begin() + static_cast<std::ptrdiff_t>(j * n),
                       X.begin() + static_cast<std::ptrdiff_t>((j + 1) * n));
        for (std::size_t j = 0; j < live.size(); ++j)
          fulfill(*live[j], tmpl, std::move(xs[j]));
      } else {
        for (std::size_t j = 0; j < live.size(); ++j) {
          GESP_TRACE_SPAN("serve", "solve");
          xs[j].resize(n);
          e->solver->solve((*live[j])->b, xs[j], ov);
          Response<T> r = tmpl;
          r.precision = e->solver->active_precision();
          r.berr = e->solver->stats().berr;
          r.refine_iterations = e->solver->stats().refine_iterations;
          r.recovery = e->solver->stats().recovery;
          fulfill(*live[j], r, std::move(xs[j]));
        }
      }
      // A mixed-mode promotion (or ladder escalation) during the solves
      // replaced the float factors with double ones: re-account the entry
      // at its real footprint so the byte budget stays honest.
      if (e->solver->active_precision() != tmpl.precision)
        cache_.update_bytes(e, entry_bytes(*e->solver, A),
                            e->solver->active_precision());
      if (attempt > 0 || hostile) {
        // Reputation update for an armed-ladder execution. "The ladder ran
        // but its best-effort answer missed the policy thresholds" is a
        // failed recovery even though a response was served — those
        // best-effort patterns are exactly the persistently hostile ones.
        const RecoveryTrail& tr = e->solver->stats().recovery;
        if (!tr.attempts.empty() && !tr.recovered)
          note_failed_recovery(bkey);
        else if (attempt > 0)
          note_recovered(bkey);
      }
      metrics::global().counter("serve.batches").inc();
      metrics::global().histogram("serve.batch_width").record(
          static_cast<double>(width));
      if (shed)
        metrics::global().counter("serve.shed_solves").inc(
            static_cast<count_t>(live.size()));
      return;
    } catch (const Error& err) {
      if (recoverable(err.code())) {
        metrics::global().counter("serve.recovery.failures").inc();
        // A failure with the ladder armed (the evict-and-retry rebuild, or
        // a hostile strongest-rung build) counts against the pattern's
        // reputation; enough of them and the pattern goes hostile.
        if (attempt > 0 || hostile) note_failed_recovery(bkey);
      }
      if (attempt == 0 && !hostile && opt_.evict_on_failure &&
          recoverable(err.code())) {
        // Recovery wiring: a poisoned cached factorization (stale entry
        // that has drifted numerically singular/unstable) is evicted, and
        // the batch retries once on a cold rebuild with the recovery
        // ladder armed. The entry mutex is released before erase() not for
        // deadlock safety — the established nesting is entry-then-cache
        // (update_bytes takes the cache mutex while the entry mutex is
        // held, and no path takes an entry mutex while holding the cache
        // mutex) — but simply because erase() has no use for it.
        elk.unlock();
        cache_.erase(e);
        // A per_column batch may have fulfilled some requests before the
        // failure; only the remainder retries.
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [](PendingPtr* sp) { return !*sp; }),
                   live.end());
        if (live.empty()) return;
        metrics::global().counter("serve.retries").inc();
        trace::instant("serve", "evict_and_retry");
        continue;
      }
      if (opt_.evict_on_failure && recoverable(err.code())) {
        // No retry budget left (hostile, or the armed retry itself
        // failed), but the poisoned entry still must not be served again.
        elk.unlock();
        cache_.erase(e);
      }
      for (auto* sp : live) {
        if (!*sp) continue;  // fulfilled before the failure
        (*sp)->promise.set_value(
            Outcome{{}, false, err.code(), err.what()});
        sp->reset();
      }
      return;
    }
  }
}

template <class T>
void SolverService<T>::fulfill(PendingPtr& p, const Response<T>& tmpl,
                               std::vector<T>&& x) {
  Response<T> r = tmpl;
  r.x = std::move(x);
  r.latency_s =
      std::chrono::duration<double>(Clock::now() - p->enqueued).count();
  // Microseconds: the histogram's power-of-two buckets would fold every
  // sub-second latency into one bucket if recorded in seconds.
  metrics::global().histogram("serve.latency_us").record(r.latency_s * 1e6);
  window_latency_us_.record(r.latency_s * 1e6);
  p->promise.set_value(Outcome{std::move(r), true, Errc::overloaded, {}});
  // Null the owning slot: the retry/error/catch-all paths skip resolved
  // requests by this marker.
  p.reset();
}

template <class T>
Response<T> SolverService<T>::prepare_entry(CacheEntry<T>& e,
                                            const sparse::CscMatrix<T>& A,
                                            std::uint64_t vhash,
                                            bool arm_recovery, bool hostile) {
  Response<T> r;
  if (!e.solver) {
    GESP_TRACE_SPAN("serve", "factor_cold");
    metrics::global().counter("serve.cache.miss").inc();
    SolverOptions so = opt_.solver;
    if (arm_recovery || hostile) so.recovery.enabled = true;
    // A hostile pattern has already burned through ladder climbs on
    // earlier requests; start at the strongest rung instead of replaying
    // the climb.
    if (hostile) so.recovery.start_rung = RecoveryRung::gepp;
    e.solver = std::make_unique<Solver<T>>(A, so);
    e.value_hash = vhash;
    e.values = A.values;
  } else if (e.value_hash == vhash && same_values(e.values, A.values)) {
    // Value hit — hash AND exact byte equality, the same two-step check
    // the pattern arrays get on acquire: the factors are current, go
    // straight to the solves.
    metrics::global().counter("serve.cache.value_hit").inc();
    r.pattern_hit = true;
    r.value_hit = true;
  } else {
    // Pattern hit: reuse the cached analysis (equilibration, permutations,
    // symbolic structure) and redo only the numeric factorization. A
    // value-hash collision (equal hashes, different bytes) lands here too
    // — degraded to a refactorize and counted, never served stale.
    if (e.value_hash == vhash)
      metrics::global().counter("serve.cache.value_hash_collisions").inc();
    GESP_TRACE_SPAN("serve", "refactorize");
    metrics::global().counter("serve.cache.pattern_hit").inc();
    if (opt_.values_delta) {
      // Near-values hit: let the solver diff the values and absorb the
      // change with the cheapest route (noop / SMW / partial); it falls
      // back to the full refactorize on its own for large drifts or an
      // escalated configuration.
      const count_t full_before = e.solver->stats().delta.full;
      e.solver->refactorize_delta(A);
      r.value_delta = e.solver->stats().delta.full == full_before;
      if (r.value_delta)
        metrics::global().counter("serve.cache.value_delta").inc();
    } else {
      e.solver->refactorize(A);
    }
    e.value_hash = vhash;
    e.values = A.values;
    r.pattern_hit = true;
  }
  return r;
}

template class SolverService<double>;
template class SolverService<Complex>;

}  // namespace gesp::serve

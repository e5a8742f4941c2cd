// The serial layer replay: feeds a traced run's op log, in op order, through
// benchmark-owned instances of each layer the serve() path calls, and times
// each call with nothing else running. Calls are made the way
// TuningService::serve() makes them (service/tuning_service.cpp): every
// production run, and every tuning session's probe and committed trials,
// warmup included, goes into the knowledge base and the index, so both grow
// to the traced run's scale. The gap between these self-times and the
// traced serve() spans is waiting.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "disc/engine.hpp"
#include "disc/trial_context.hpp"
#include "service/cloud_tuner.hpp"
#include "service/retrieval_index.hpp"
#include "service/shared_kb.hpp"
#include "simcore/rng.hpp"
#include "transfer/warm_start.hpp"
#include "tuning/trial_executor.hpp"
#include "tuning/tuner.hpp"
#include "workload/eval_cache.hpp"
#include "workload/execute.hpp"

namespace stune::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Caps on the timed expensive replays, spread evenly over the window's ops.
// Every tuning session is replayed, since its runs feed the knowledge base;
// only the sampled ones are timed.
constexpr std::size_t kExecuteSamples = 2000;
constexpr std::size_t kSessionSamples = 24;  // per tuner
constexpr std::size_t kCloudSamples = 16;
// Every n-th replayed query is also answered by query_flat and compared.
constexpr std::size_t kFlatCheckEvery = 16;
// A tenant's own donor list under TransferScope::kTenantLocal
// (service/tuning_service.cpp).
constexpr std::size_t kMaxOwnDonors = 16;

/// One service's layers, owned by the replay.
struct Layers {
  explicit Layers(const service::ServiceOptions& o)
      : options(o), kb(o.knowledge), index(o.knowledge.retrieval) {}

  const service::ServiceOptions& options;
  service::SharedKnowledgeBase kb;
  service::RetrievalIndex index;
  workload::EvalCache cache;
  tuning::TrialExecutor executor{tuning::ExecutorOptions{.jobs = 1}};
  disc::TrialContext ctx;
};

/// What the replay knows about a tenant before its next op.
struct TenantState {
  bool seen = false;
  bool tuned = false;
  std::uint32_t tunings = 0;
  std::uint32_t runs = 0;
  std::uint32_t config = 0;  // the configuration the tenant ended its last op with
  transfer::Signature signature;
  std::vector<transfer::DonorObservation> own_donors;  // kTenantLocal services only
};

/// Takes every `stride`-th of the candidates it is shown.
class Sampler {
 public:
  Sampler(std::size_t candidates, std::size_t cap)
      : stride_(std::max<std::size_t>(1, (candidates + cap - 1) / std::max<std::size_t>(cap, 1))) {}
  bool take() { return seen_++ % stride_ == 0; }

 private:
  std::size_t stride_;
  std::size_t seen_ = 0;
};

struct SessionTimes {
  std::vector<double> session_ms;
  std::vector<double> self_ms;
  std::size_t trials = 0;
};

bool same_hits(const service::RetrievalHit* a, const service::RetrievalHit* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!simcore::bits_equal(a[i].dist2, b[i].dist2) ||
        !simcore::bits_equal(a[i].runtime, b[i].runtime) ||
        a[i].input_bytes != b[i].input_bytes || a[i].entry != b[i].entry ||
        a[i].config != b[i].config) {
      return false;
    }
  }
  return true;
}

disc::SparkSimulator simulator(const service::ServiceOptions& o, const cluster::ClusterSpec& c,
                               std::uint64_t seed_salt) {
  disc::EngineOptions eopts;
  eopts.cost = o.cost_model;
  eopts.contention = o.contention;
  eopts.seed = simcore::hash_combine(o.seed, seed_salt);
  return disc::SparkSimulator(cluster::Cluster::from_spec(c), eopts);
}

class Replayer {
 public:
  explicit Replayer(const Trace& trace)
      : trace_(trace), tenants_(trace.tenant_shape.size()) {
    for (const auto& o : trace.services) layers_.push_back(std::make_unique<Layers>(o));
  }

  ReplayResult run() {
    // Pre-pass: how many window ops each sampled replay could pick from.
    std::size_t sessions = 0, provisions = 0, executions = 0;
    {
      std::vector<std::uint32_t> tunings(tenants_.size(), 0);
      for (const LogEntry& e : trace_.log) {
        const bool session = e.tunings_after > tunings[e.tenant];
        if (e.in_window && !e.shed) {
          ++executions;
          if (session) ++sessions;
          if (session && tunings[e.tenant] == 0) ++provisions;
        }
        tunings[e.tenant] = std::max(tunings[e.tenant], e.tunings_after);
      }
    }
    Sampler execute_sampler(executions, kExecuteSamples);
    Sampler session_sampler(sessions, kSessionSamples * trace_.services.size());
    Sampler cloud_sampler(provisions, kCloudSamples);

    for (const LogEntry& e : trace_.log) {
      TenantState& st = tenants_[e.tenant];
      Layers& l = *layers_[e.service];
      const bool session = e.tunings_after > st.tunings;
      if (e.shed) continue;
      const bool timed = e.in_window;

      if (timed) query(l, st, e);
      if (timed && ((e.outcome == service::ServeOutcome::kDegraded && st.seen) || session)) {
        donors(l, st, st.seen ? st.signature : e.signature);
      }
      // An untuned tenant's first session runs before the production run;
      // every later one is a drift re-tune after it. A first session probes
      // the provider's configuration, a re-tune the configuration that ran.
      const bool timed_session = timed && session && session_sampler.take();
      std::uint32_t ordinal = st.tunings;
      std::optional<config::Configuration> incumbent;
      if (session && ordinal == 0) {
        incumbent = tune(l, st, e, ++ordinal,
                         service::provider_auto_config(
                             cluster::Cluster::from_spec(trace_.clusters[e.cluster])),
                         timed_session);
        if (timed && l.options.tune_cloud && cloud_sampler.take()) provision(l, e);
      }
      if (timed && session) retunes_ += e.tunings_after - std::max<std::uint32_t>(st.tunings, 1);
      if (timed && execute_sampler.take()) {
        execute(l, e, /*compare=*/!session && e.outcome != service::ServeOutcome::kDegraded &&
                                      st.runs + 1 == e.production_runs_after);
      }
      slo_and_record(l, st, e, timed);
      while (ordinal < e.tunings_after) {
        incumbent = tune(l, st, e, ++ordinal, incumbent ? *incumbent : trace_.configs[st.config],
                         timed_session);
      }

      st.seen = true;
      st.tuned = e.tuned_after;
      st.tunings = std::max(st.tunings, e.tunings_after);
      st.runs = std::max(st.runs, e.production_runs_after);
      st.config = e.config;
      st.signature = e.signature;
    }
    return finish();
  }

 private:
  /// TuningService::try_retrieve's lookup, for an untuned tenant that has a
  /// signature, against the retrieval policy of the tenant's service.
  void query(Layers& l, const TenantState& st, const LogEntry& e) {
    const auto& policy = l.options.retrieval;
    if (!policy.enabled || !st.seen || st.tuned) return;
    const auto snap = l.index.retrieval_snapshot();
    if (snap->size() == 0) return;
    service::RetrievalQuery q;
    q.signature = st.signature;
    q.input_bytes = e.input_bytes;
    q.size_tolerance = policy.size_tolerance;
    q.min_similarity = policy.min_similarity;
    q.probe_cells = policy.probe_cells;
    service::RetrievalHit hits[service::RetrievalSnapshot::kMaxK];
    const auto t0 = Clock::now();
    const std::size_t n = snap->query(q, policy.top_k, hits);
    query_us_.push_back(us_since(t0));
    ++result_.queries;
    if (std::any_of(hits, hits + n, [](const auto& h) { return h.config != nullptr; })) {
      ++result_.query_hits;
    }
    if (policy.probe_cells == 0 && result_.queries % kFlatCheckEvery == 1) {
      service::RetrievalHit flat[service::RetrievalSnapshot::kMaxK];
      const std::size_t nf = snap->query_flat(q, policy.top_k, flat);
      ++result_.flat_checks;
      if (nf != n || !same_hits(hits, flat, n)) ++result_.flat_mismatches;
    }
  }

  static bool tenant_local(const Layers& l) {
    return l.options.transfer_scope == service::ServiceOptions::TransferScope::kTenantLocal;
  }

  /// TuningService::donor_pool: the tenant's own donors or the knowledge
  /// base's shared pool, by the service's transfer scope.
  static std::vector<transfer::DonorObservation> donor_pool(const Layers& l,
                                                            const TenantState& st) {
    return tenant_local(l) ? st.own_donors : l.kb.indexed_donors();
  }

  /// The donor pool and warm-start selection a degrade or a tuning session
  /// draws from. kb.donors_us times the shared pool's copy even where the
  /// service is tenant-local and does not make it, so the call is measured
  /// at the knowledge base's scale on every workload that tunes.
  void donors(Layers& l, const TenantState& st, const transfer::Signature& sig) {
    auto t0 = Clock::now();
    const auto shared = l.kb.indexed_donors();
    donors_us_.push_back(us_since(t0));
    const auto pool = tenant_local(l) ? st.own_donors : shared;
    if (pool.empty()) return;
    t0 = Clock::now();
    const auto picks = transfer::select_warm_start(sig, pool, l.options.transfer);
    warm_start_us_.push_back(us_since(t0));
  }

  /// TuningService::tune_disc: probe the incumbent, warm-start from the
  /// donor pool, run one TrialExecutor session with the
  /// service's tuner, budget and seed, and record the probe and every
  /// committed trial. When timed, the objective is timed separately so the
  /// session's own cost is visible. Returns the configuration the tenant
  /// runs next.
  config::Configuration tune(Layers& l, TenantState& st, const LogEntry& e, std::uint32_t ordinal,
                             const config::Configuration& incumbent, bool timed) {
    const service::ServiceOptions& o = l.options;
    const auto& shape = *trace_.shapes[trace_.tenant_shape[e.tenant]];
    const auto sim = simulator(o, trace_.clusters[e.cluster], 0);
    tuning::TuneOptions topts;
    topts.budget = ordinal == 1 ? o.tuning_budget : o.retuning_budget;
    topts.retry = o.retry;
    topts.seed = simcore::hash_combine(
        o.seed, simcore::hash_combine(simcore::hash_string(tenant_name(e.tenant)),
                                      simcore::hash_combine(simcore::hash_string(shape.name()),
                                                            ordinal)));
    const auto probe = workload::execute(shape, e.input_bytes, sim, incumbent, l.cache, l.ctx);
    record(l, st, e, incumbent, probe, e.in_window);
    const auto signature = transfer::characterize(probe);
    if (probe.success) {
      topts.failure_penalty_floor = std::max(topts.failure_penalty_floor, probe.runtime);
    }
    const auto pool = donor_pool(l, st);
    if (o.enable_transfer && !pool.empty()) {
      topts.warm_start = transfer::select_warm_start(signature, pool, o.transfer);
    }

    double objective_us = 0.0;
    std::size_t trials = 0;
    const tuning::TrialObjective objective = [&](const config::Configuration& c, int) {
      const auto t0 = Clock::now();
      const auto report = workload::execute(shape, e.input_bytes, sim, c, l.cache, l.ctx);
      objective_us += us_since(t0);
      ++trials;
      return tuning::EvalOutcome{report.runtime, !report.success,
                                 report.success ? tuning::FaultClass::kNone
                                                : tuning::FaultClass::kConfig};
    };
    std::vector<tuning::Observation> committed;
    const tuning::TrialExecutor::CommitHook hook = [&committed](const tuning::Observation& ob) {
      committed.push_back(ob);
    };
    const auto tuner = tuning::make_tuner(o.tuner);
    const auto t0 = Clock::now();
    const auto result = l.executor.run(*tuner, config::spark_space(), objective, topts, hook);
    const double session_us = us_since(t0);
    if (timed) {
      SessionTimes& s = sessions_[o.tuner];
      s.session_ms.push_back(session_us / 1000.0);
      s.self_ms.push_back((session_us - objective_us) / 1000.0);
      s.trials += trials;
    }
    // The settled outcome of each trial, re-read from the cache as the
    // service does after the session.
    for (const auto& ob : committed) {
      if (ob.fault == tuning::FaultClass::kInfra) continue;
      record(l, st, e, ob.config,
             workload::execute(shape, e.input_bytes, sim, ob.config, l.cache, l.ctx),
             e.in_window);
    }
    const double incumbent_runtime =
        probe.success ? probe.runtime : std::numeric_limits<double>::infinity();
    return result.found_feasible && result.best_runtime < incumbent_runtime ? result.best
                                                                            : incumbent;
  }

  /// Stage 1 of a tenant's first tuning (tune_cloud).
  void provision(Layers& l, const LogEntry& e) {
    const service::ServiceOptions& o = l.options;
    const auto& shape = *trace_.shapes[trace_.tenant_shape[e.tenant]];
    service::CloudTunerOptions copts = o.cloud;
    copts.seed = simcore::hash_combine(o.seed, simcore::hash_string(shape.name()));
    copts.contention = o.contention;
    copts.cost_model = o.cost_model;
    const service::CloudTuner cloud(copts);
    const auto t0 = Clock::now();
    (void)cloud.choose(shape, e.input_bytes, l.cache, l.executor);
    cloud_ms_.push_back(us_since(t0) / 1000.0);
  }

  /// The production run, re-executed with the service's engine seed for it
  /// (TuningService::execute, salt 1 + runs before it). Where the logged
  /// configuration is the one that ran, the report must match bitwise.
  void execute(Layers& l, const LogEntry& e, bool compare) {
    const auto& shape = *trace_.shapes[trace_.tenant_shape[e.tenant]];
    const auto sim = simulator(l.options, trace_.clusters[e.cluster], e.production_runs_after);
    auto t0 = Clock::now();
    const auto report =
        workload::execute(shape, e.input_bytes, sim, trace_.configs[e.config], l.cache, l.ctx);
    execute_us_.push_back(us_since(t0));
    t0 = Clock::now();
    const auto sig = transfer::characterize(report);
    characterize_us_.push_back(us_since(t0));
    if (!compare) return;
    ++result_.execute_checks;
    const auto a = sig.as_array();
    const auto b = e.signature.as_array();
    bool same = report.success == e.success && simcore::bits_equal(report.runtime, e.runtime) &&
                simcore::bits_equal(report.cost, e.cost);
    for (std::size_t d = 0; d < a.size(); ++d) same = same && simcore::bits_equal(a[d], b[d]);
    if (!same) ++result_.execute_mismatches;
  }

  /// The SLO reference and the record of a production run.
  void slo_and_record(Layers& l, TenantState& st, const LogEntry& e, bool timed) {
    const service::ServiceOptions& o = l.options;
    const auto t0 = Clock::now();
    const auto ref = l.kb.best_similar_runtime(e.signature, e.input_bytes,
                                               o.slo_reference_similarity);
    if (timed) {
      slo_us_.push_back(us_since(t0));
      ++slo_queries_;
      if (ref.has_value()) ++slo_answered_;
    }
    service::ExecutionRecord r = record_of(e, trace_.configs[e.config]);
    r.runtime = e.runtime;
    r.cost = e.cost;
    r.failed = !e.success;
    r.signature = e.signature;
    record(l, st, std::move(r), timed);
  }

  /// A tuning run's record (TuningService::record_to_kb).
  void record(Layers& l, TenantState& st, const LogEntry& e, const config::Configuration& conf,
              const disc::ExecutionReport& report, bool timed) {
    service::ExecutionRecord r = record_of(e, conf);
    r.runtime = report.runtime;
    r.cost = report.cost;
    r.failed = !report.success;
    r.from_tuning = true;
    r.signature = transfer::characterize(report);
    record(l, st, std::move(r), timed);
  }

  service::ExecutionRecord record_of(const LogEntry& e, const config::Configuration& conf) const {
    service::ExecutionRecord r;
    r.tenant = tenant_name(e.tenant);
    r.workload_label = trace_.shapes[trace_.tenant_shape[e.tenant]]->name();
    r.cluster = trace_.clusters[e.cluster];
    r.config = conf;
    r.input_bytes = e.input_bytes;
    return r;
  }

  /// The knowledge-base record and, for a successful run, the tenant's own
  /// donor list (kTenantLocal) and the retrieval append. Timed in the
  /// window only; warmup ops only build scale.
  void record(Layers& l, TenantState& st, service::ExecutionRecord r, bool timed) {
    const bool success = !r.failed;
    const transfer::Signature signature = r.signature;
    const config::Configuration conf = r.config;
    const simcore::Bytes input = r.input_bytes;
    const double runtime = r.runtime;
    if (success && tenant_local(l)) {
      transfer::DonorObservation d;
      d.observation.config = conf;
      d.observation.runtime = runtime;
      d.observation.failed = false;
      d.observation.objective = runtime;
      d.signature = signature;
      // Runtime-ascending, earlier records win ties.
      const auto pos = std::find_if(st.own_donors.begin(), st.own_donors.end(),
                                    [&](const transfer::DonorObservation& o) {
                                      return o.observation.runtime > runtime;
                                    });
      st.own_donors.insert(pos, std::move(d));
      if (st.own_donors.size() > kMaxOwnDonors) st.own_donors.resize(kMaxOwnDonors);
    }
    auto t0 = Clock::now();
    (void)l.kb.record_execution(std::move(r));
    if (timed) record_us_.push_back(us_since(t0));

    if (!success) return;
    const std::size_t indexed = l.index.retrieval_snapshot()->ivf_indexed();
    t0 = Clock::now();
    l.index.append(signature, input, runtime, conf);
    const double us = us_since(t0);
    const bool rebuilt = l.index.retrieval_snapshot()->ivf_indexed() != indexed;
    if (rebuilt) ++rebuilds_;
    if (!timed) return;
    append_us_.push_back(us);
    if (rebuilt) rebuild_ms_.push_back(us / 1000.0);
  }

  ReplayResult finish() {
    Metrics& m = result_.metrics;
    const auto put = [&m](const std::string& name, double value, const char* unit) {
      m[name] = Metric{value, unit};
    };
    const auto max_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    put("kb.record_us.p50", percentile(record_us_, 0.50), "us");
    put("kb.record_us.p99", percentile(record_us_, 0.99), "us");
    put("kb.slo_ref_us.p50", percentile(slo_us_, 0.50), "us");
    put("kb.slo_ref_us.p99", percentile(slo_us_, 0.99), "us");
    put("kb.slo_ref.answered_frac",
        slo_queries_ > 0 ? static_cast<double>(slo_answered_) / static_cast<double>(slo_queries_)
                         : 0.0,
        "ratio");
    put("kb.donors_us.p50", percentile(donors_us_, 0.50), "us");
    std::size_t records = 0, entries = 0;
    for (const auto& l : layers_) {
      records += l->kb.total_records();
      entries += l->index.size();
    }
    put("kb.records", static_cast<double>(records), "count");
    result_.records = records;

    put("retrieval.append_us.p50", percentile(append_us_, 0.50), "us");
    put("retrieval.append_us.p99", percentile(append_us_, 0.99), "us");
    put("retrieval.append_us.max", max_of(append_us_), "us");
    put("retrieval.rebuilds", static_cast<double>(rebuilds_), "count");
    put("retrieval.rebuild_ms.p50", percentile(rebuild_ms_, 0.50), "ms");
    put("retrieval.rebuild_ms.max", max_of(rebuild_ms_), "ms");
    put("retrieval.entries", static_cast<double>(entries), "count");
    put("retrieval.query_us.p50", percentile(query_us_, 0.50), "us");
    put("retrieval.query_us.p99", percentile(query_us_, 0.99), "us");
    put("retrieval.hit_frac",
        result_.queries > 0
            ? static_cast<double>(result_.query_hits) / static_cast<double>(result_.queries)
            : 0.0,
        "ratio");

    put("transfer.characterize_us.p50", percentile(characterize_us_, 0.50), "us");
    put("transfer.warm_start_us.p50", percentile(warm_start_us_, 0.50), "us");

    std::size_t trials = 0, replayed = 0;
    for (const char* tuner : {"bayesopt", "hillclimb"}) {
      SessionTimes& s = sessions_[tuner];
      const std::string prefix = std::string("tuning.") + tuner;
      put(prefix + ".session_ms.p50", percentile(s.session_ms, 0.50), "ms");
      put(prefix + ".session_ms.p99", percentile(s.session_ms, 0.99), "ms");
      put(prefix + ".self_ms.p50", percentile(s.self_ms, 0.50), "ms");
      trials += s.trials;
      replayed += s.session_ms.size();
    }
    put("tuning.trials",
        replayed > 0 ? static_cast<double>(trials) / static_cast<double>(replayed) : 0.0,
        "count");
    put("adaptive.retunes", static_cast<double>(retunes_), "count");
    put("cloud.choose_ms.p50", percentile(cloud_ms_, 0.50), "ms");
    put("disc.execute_us.p50", percentile(execute_us_, 0.50), "us");
    put("disc.execute_us.p99", percentile(execute_us_, 0.99), "us");

    // A steady serve() runs the production execution, characterizes it
    // twice (SLO bookkeeping and the KB record), asks for the SLO reference
    // and records the run (the record includes the KB's own index append).
    result_.steady_parts_us = m["disc.execute_us.p50"].value +
                              2.0 * m["transfer.characterize_us.p50"].value +
                              m["kb.slo_ref_us.p50"].value + m["kb.record_us.p50"].value;
    return std::move(result_);
  }

  static std::string tenant_name(std::uint32_t tenant) {
    return "tenant-" + std::to_string(tenant);
  }

  const Trace& trace_;
  std::vector<std::unique_ptr<Layers>> layers_;
  std::vector<TenantState> tenants_;
  ReplayResult result_;
  std::vector<double> record_us_, slo_us_, donors_us_, warm_start_us_, append_us_, rebuild_ms_,
      query_us_, characterize_us_, execute_us_, cloud_ms_;
  std::map<std::string, SessionTimes> sessions_;
  std::size_t rebuilds_ = 0;
  std::size_t slo_queries_ = 0;
  std::size_t slo_answered_ = 0;
  std::size_t retunes_ = 0;
};

}  // namespace

ReplayResult replay(const Trace& trace) { return Replayer(trace).run(); }

}  // namespace stune::perfbench

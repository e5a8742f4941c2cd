// The serving-tier benchmark: drives service::TuningService with one of
// two traffic mixes from a closed loop of client threads, and prints the
// tenant-facing metrics (--trace 0) or the per-layer breakdown (--trace 1)
// as the last line of standard output. perfbench/README.md describes the
// workloads and metrics; perfbench/run.py builds and runs this binary.
//
//   serving_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--commit SHA]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "simcore/rng.hpp"
#include "workload/eval_cache.hpp"

namespace stune::perfbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kSizes = 8;  // tenant input sizes 1..8 GiB

/// One traffic mix: lanes of short-lived tenants, each submitted on its
/// first visit and replaced by a new tenant after its last.
struct Spec {
  std::size_t tenants = 0;  // lanes
  std::size_t visits = 0;   // visits per tenant
  std::size_t warmup_ops = 0;
  std::size_t setups = 3;   // set-ups per --trace 0 run; setup_s is their median
  std::size_t shards = 64;
  double tuning_burst = -1.0;  // fixed per-shard tuning-session stock; < 0 = unlimited
  // The load harness's budgets (bench/bench_service_load.cpp).
  std::size_t tuning_budget = 10;
  std::size_t retuning_budget = 6;
  bool retrieval = false;
  bool tune_cloud = false;
  /// Warm starts and degrades draw on the tenant's own runs only
  /// (TransferScope::kTenantLocal). With the shared donor pool a session's
  /// trials depend on which other tenants' runs landed first, so the work
  /// per op, and the throughput, vary with thread timing: the same seed ran
  /// 12k to 18k ops in 10 s with every service sharing, and 8.8k to 13k
  /// with two of eight sharing.
  bool tenant_local_transfer = false;
  bool step_sizes = false;  // input doubles every 4 visits (the paper's DS1 -> DS3)
  /// Tenants are spread over `services` services by a hash of the tenant;
  /// service k runs tuners[k % tuners.size()] and, past the first, a seed
  /// derived from the run's. Every service seeds its stage-1 cloud search
  /// per workload shape, so more services average over more such draws.
  std::size_t services = 1;
  std::vector<std::string> tuners{"bayesopt"};
  /// A slower op counts as late. On fleet_churn only knowledge-base stalls
  /// (index rebuilds, tens of ms) pass 10 ms; a 1 ms limit would sit in the
  /// continuous tail, whose share moved 2.7x between seeds.
  double late_limit_us = 10000.0;
};

Spec spec_for(const std::string& name, bool smoke) {
  Spec s;
  if (name == "fleet_churn") {
    s.tenants = 4096;
    s.visits = 2;
    s.warmup_ops = 24576;
    s.tuning_burst = 32.0;
    s.retrieval = true;
  } else if (name == "onboard_tuning") {
    s.tenants = 256;
    s.visits = 12;
    s.warmup_ops = 1024;
    s.tuning_budget = 30;  // the service defaults: the paper's full pipeline
    s.retuning_budget = 15;
    s.tune_cloud = true;
    s.tenant_local_transfer = true;
    s.step_sizes = true;
    s.services = 8;
    s.shards = 8;
    s.tuners = {"bayesopt", "hillclimb"};
    s.late_limit_us = 20000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fleet_churn, onboard_tuning)");
  }
  if (smoke) {
    s.tenants = std::max<std::size_t>(s.tenants / 16, 16);
    s.warmup_ops /= 16;
    s.setups = 2;
    s.shards = std::min<std::size_t>(s.shards, 8);
  }
  return s;
}

/// The options of the workload's k-th service.
service::ServiceOptions service_options(const Spec& s, std::uint64_t seed, std::size_t k) {
  service::ServiceOptions o;
  o.seed = k == 0 ? seed : simcore::hash_combine(seed, k);
  o.jobs = 1;
  o.shards = s.shards;
  o.tune_cloud = s.tune_cloud;
  o.tuner = s.tuners[k % s.tuners.size()];
  o.tuning_budget = s.tuning_budget;
  o.retuning_budget = s.retuning_budget;
  // The counterfactual re-simulates every production run for the savings
  // ledger: it measures accounting, not serving.
  o.ledger_counterfactual = false;
  if (s.tuning_burst >= 0.0) {
    o.admission.tuning_tokens_per_s = 0.0;
    o.admission.tuning_burst = s.tuning_burst;
  }
  o.knowledge.max_records = 50000;
  o.retrieval.enabled = s.retrieval;
  if (s.tenant_local_transfer) {
    o.transfer_scope = service::ServiceOptions::TransferScope::kTenantLocal;
  }
  return o;
}

/// The seeded op stream: op i -> (tenant, visit). The seed permutes which
/// shape and size each tenant gets and the order tenants visit in.
///
/// The workload's `tenants` lanes are visited once per round in one seeded
/// order; a lane's tenant makes `visits` visits in
/// successive rounds, then a new tenant takes the lane over. Lanes are
/// staggered (lane s starts s % visits visits in), so every round holds each
/// visit number equally often and a window's mix does not depend on where
/// it ends.
class OpStream {
 public:
  struct Op {
    std::size_t tenant = 0;
    std::size_t visit = 0;
    bool first = false;  // the tenant's first op
  };

  OpStream(const Spec& spec, std::uint64_t seed, std::size_t shapes)
      : spec_(spec), seed_(seed), order_(spec.tenants), combo_(shapes * kSizes) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < combo_.size(); ++i) combo_[i] = static_cast<std::uint32_t>(i);
    const simcore::Rng rng(seed);
    auto order_rng = rng.fork("visit-order");
    auto combo_rng = rng.fork("tenant-combo");
    order_rng.shuffle(order_);
    combo_rng.shuffle(combo_);
  }

  Op at(std::uint64_t i) const {
    const std::size_t n = spec_.tenants;
    const std::size_t lane = order_[i % n];
    const std::uint64_t round = i / n;
    const std::uint64_t age = round + lane % spec_.visits;
    const auto visit = static_cast<std::size_t>(age % spec_.visits);
    return {static_cast<std::size_t>(age / spec_.visits) * n + lane, visit,
            visit == 0 || round == 0};
  }

  /// An upper bound on the tenants ops [0, ops) touch.
  std::size_t tenants_for(std::uint64_t ops) const {
    const std::size_t n = spec_.tenants;
    const std::uint64_t rounds = ops / n + 1;
    return static_cast<std::size_t>((rounds + spec_.visits) / spec_.visits + 1) * n;
  }

  std::size_t shape(std::size_t tenant) const { return combo_[tenant % combo_.size()] / kSizes; }

  /// The tenant's service. Hashed rather than tenant % services: the 72
  /// shape and size combinations repeat every 72 tenants, so a modulus
  /// dividing 72 would pin each combination to one service and tuner, and
  /// the seed would decide which.
  std::size_t service(std::size_t tenant) const {
    return static_cast<std::size_t>(
        simcore::hash_combine(seed_, simcore::hash_string("service") + tenant) % spec_.services);
  }

  /// One of kSizes sizes, plus a per-tenant offset of under 64 MiB: tenants
  /// sharing a shape and size still run distinct inputs, so their engine
  /// draws (and drift alarms) are independent rather than one shared
  /// sequence per shape and size.
  simcore::Bytes initial_input(std::size_t tenant) const {
    const simcore::Bytes offset = simcore::kib(static_cast<double>(
        simcore::hash_combine(seed_, static_cast<std::uint64_t>(tenant)) % 65536));
    return simcore::gib(static_cast<double>(1 + combo_[tenant % combo_.size()] % kSizes)) +
           offset;
  }

  /// The request's input size; 0 reuses the previous one (stable input).
  simcore::Bytes input(const Op& op) const {
    if (!spec_.step_sizes) return 0;
    return initial_input(op.tenant) << (op.visit / 4);
  }

 private:
  const Spec& spec_;
  const std::uint64_t seed_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> combo_;
};

/// The ops that completed in one second of a phase.
struct Slot {
  std::uint64_t ops = 0;
  std::uint64_t late = 0;      // shed, threw, or slower than the workload's limit
  std::vector<double> lat_us;  // answered (not shed, not thrown) calls
};

/// Per-thread outcome tallies of one phase.
struct Tally {
  std::uint64_t ops = 0;  // ops run, counted apart from their outcomes
  std::uint64_t served = 0, retrieved = 0, degraded = 0, shed = 0, threw = 0;
  std::uint64_t bad_reports = 0;  // non-shed report without a finite runtime > 0
  std::uint64_t job_failures = 0;
  double runtime_sum = 0.0;
  std::vector<Slot> seconds;  // by completion time since the phase began

  std::uint64_t attempted() const { return ops; }
  std::uint64_t jobs() const { return served + retrieved + degraded; }

  Slot& second(std::size_t i) {
    if (seconds.size() <= i) seconds.resize(i + 1);
    return seconds[i];
  }

  void merge(Tally&& o) {
    ops += o.ops;
    served += o.served;
    retrieved += o.retrieved;
    degraded += o.degraded;
    shed += o.shed;
    threw += o.threw;
    bad_reports += o.bad_reports;
    job_failures += o.job_failures;
    runtime_sum += o.runtime_sum;
    for (std::size_t i = 0; i < o.seconds.size(); ++i) {
      Slot& a = second(i);
      Slot& b = o.seconds[i];
      a.ops += b.ops;
      a.late += b.late;
      a.lat_us.insert(a.lat_us.end(), b.lat_us.begin(), b.lat_us.end());
    }
  }
};

/// health() summed over the workload's services.
struct HealthTotals {
  std::uint64_t served = 0, degraded = 0, shed = 0, retrieved = 0;
  std::uint64_t misses = 0, fallbacks = 0, tuning_sessions = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t kb_records = 0, retrieval_entries = 0;

  HealthTotals operator-(const HealthTotals& b) const {
    HealthTotals d = *this;
    d.served -= b.served;
    d.degraded -= b.degraded;
    d.shed -= b.shed;
    d.retrieved -= b.retrieved;
    d.misses -= b.misses;
    d.fallbacks -= b.fallbacks;
    d.tuning_sessions -= b.tuning_sessions;
    d.cache_hits -= b.cache_hits;
    d.cache_misses -= b.cache_misses;
    return d;
  }
};

/// Collects the op log of a traced run; pools configurations and clusters.
class Tracer {
 public:
  explicit Tracer(std::size_t threads) : logs_(threads) {}

  void log(std::size_t thread, LogEntry e, const service::WorkloadStatus& st) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      e.config = intern_config(st.config);
      e.cluster = intern_cluster(st.cluster);
    }
    logs_[thread].push_back(e);
  }

  /// The merged log, ascending op, plus the pools.
  void finish(Trace& t) {
    for (auto& l : logs_) {
      t.log.insert(t.log.end(), l.begin(), l.end());
      l.clear();
      l.shrink_to_fit();
    }
    std::sort(t.log.begin(), t.log.end(),
              [](const LogEntry& a, const LogEntry& b) { return a.op < b.op; });
    t.configs = std::move(configs_);
    t.clusters = std::move(clusters_);
  }

 private:
  std::uint32_t intern_config(const config::Configuration& c) {
    const auto [it, inserted] =
        config_ids_.try_emplace(c.fingerprint(), static_cast<std::uint32_t>(configs_.size()));
    if (inserted) {
      configs_.push_back(c);
    } else if (!(configs_[it->second] == c)) {
      // A fingerprint collision: keep the configuration unpooled.
      configs_.push_back(c);
      return static_cast<std::uint32_t>(configs_.size() - 1);
    }
    return it->second;
  }

  std::uint32_t intern_cluster(const cluster::ClusterSpec& c) {
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      if (clusters_[i] == c) return static_cast<std::uint32_t>(i);
    }
    clusters_.push_back(c);
    return static_cast<std::uint32_t>(clusters_.size() - 1);
  }

  std::vector<std::vector<LogEntry>> logs_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> config_ids_;
  std::vector<config::Configuration> configs_;
  std::vector<cluster::ClusterSpec> clusters_;
};

/// The services of one set-up and the tenant -> handle table.
class Fleet {
 public:
  Fleet(const Spec& spec, const OpStream& stream, std::uint64_t seed,
        const std::vector<std::shared_ptr<const workload::Workload>>& shapes,
        std::size_t tenant_capacity)
      : stream_(stream), shapes_(shapes), handles_(tenant_capacity) {
    for (std::size_t k = 0; k < spec.services; ++k) {
      services_.push_back(std::make_unique<service::TuningService>(service_options(spec, seed, k)));
    }
  }

  std::size_t capacity() const { return handles_.size(); }
  std::size_t service_index(std::size_t tenant) const { return stream_.service(tenant); }
  service::TuningService& service(std::size_t tenant) { return *services_[service_index(tenant)]; }

  /// The tenant's handle. A tenant submits on its first visit; a later
  /// visit waits for that (the first visit's op was claimed earlier and
  /// always runs, so the wait ends).
  int handle(const OpStream::Op& op) {
    std::atomic<int>& slot = handles_[op.tenant];
    if (op.first) {
      const int h = submit(op.tenant);
      slot.store(h, std::memory_order_release);
      return h;
    }
    int h = slot.load(std::memory_order_acquire);
    while (h == 0) {
      std::this_thread::yield();
      h = slot.load(std::memory_order_acquire);
    }
    return h;
  }

  HealthTotals health() const {
    HealthTotals t;
    for (const auto& svc : services_) {
      const auto h = svc->health(false);
      t.served += h.served;
      t.degraded += h.degraded;
      t.shed += h.shed;
      t.retrieved += h.retrieved;
      t.misses += h.retrieval_misses;
      t.fallbacks += h.retrieval_fallbacks;
      for (const auto& s : h.per_shard) t.tuning_sessions += s.tuning_sessions;
      const auto c = svc->eval_cache_stats();
      t.cache_hits += c.hits;
      t.cache_misses += c.misses;
      t.kb_records += svc->knowledge_size();
      t.retrieval_entries += h.retrieval_entries;
    }
    return t;
  }

 private:
  int submit(std::size_t tenant) {
    return service(tenant).submit("tenant-" + std::to_string(tenant),
                                  shapes_[stream_.shape(tenant)], stream_.initial_input(tenant));
  }

  const OpStream& stream_;
  const std::vector<std::shared_ptr<const workload::Workload>>& shapes_;
  std::vector<std::unique_ptr<service::TuningService>> services_;
  std::vector<std::atomic<int>> handles_;
};

/// Runs the op stream from `next` on `threads` closed-loop clients until
/// `end` ops were claimed or, when `deadline` is set, the deadline passed.
/// Every claimed op runs to completion.
class Clients {
 public:
  Clients(Fleet& fleet, const OpStream& stream, const Spec& spec, std::size_t threads)
      : fleet_(fleet), stream_(stream), spec_(spec), threads_(threads) {}

  Tally run(std::uint64_t end, std::optional<Clock::time_point> deadline, Tracer* tracer,
            bool in_window) {
    std::vector<Tally> tallies(threads_);
    start_ = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(threads_);
    for (std::size_t k = 0; k < threads_; ++k) {
      workers.emplace_back([&, k] { client(k, end, deadline, tracer, in_window, tallies[k]); });
    }
    for (auto& w : workers) w.join();
    if (failure_) std::rethrow_exception(failure_);
    Tally all;
    for (auto& t : tallies) all.merge(std::move(t));
    next_.store(std::min<std::uint64_t>(next_.load(), end));
    return all;
  }

  std::uint64_t next_op() const { return next_.load(); }
  bool exhausted() const { return exhausted_.load(); }

 private:
  void client(std::size_t k, std::uint64_t end, std::optional<Clock::time_point> deadline,
              Tracer* tracer, bool in_window, Tally& tally) {
    try {
      for (;;) {
        if (deadline && Clock::now() >= *deadline) return;
        const std::uint64_t i = next_.fetch_add(1);
        if (i >= end) return;
        const OpStream::Op op = stream_.at(i);
        if (op.tenant >= fleet_.capacity()) {
          exhausted_.store(true);
          return;
        }
        serve_one(k, i, op, tracer, in_window, tally);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mu_);
      if (!failure_) failure_ = std::current_exception();
    }
  }

  void serve_one(std::size_t k, std::uint64_t i, const OpStream::Op& op, Tracer* tracer,
                 bool in_window, Tally& tally) {
    const int h = fleet_.handle(op);
    service::TuningService& svc = fleet_.service(op.tenant);
    service::ServeRequest req;
    req.input_bytes = stream_.input(op);
    service::ServeResult r;
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      r = svc.serve(h, req);
    } catch (const std::exception&) {
      threw = true;
    }
    const auto t1 = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    Slot& slot =
        tally.second(static_cast<std::size_t>(std::chrono::duration<double>(t1 - start_).count()));
    ++slot.ops;

    const bool shed = !threw && r.outcome == service::ServeOutcome::kShed;
    ++tally.ops;
    if (threw) {
      ++tally.threw;
    } else {
      switch (r.outcome) {
        case service::ServeOutcome::kServed: ++tally.served; break;
        case service::ServeOutcome::kRetrieved: ++tally.retrieved; break;
        case service::ServeOutcome::kDegraded: ++tally.degraded; break;
        case service::ServeOutcome::kShed: ++tally.shed; break;
      }
    }
    if (threw || shed || us > spec_.late_limit_us) ++slot.late;
    if (!threw && !shed) {
      slot.lat_us.push_back(us);
      const double rt = r.report.runtime;
      if (!std::isfinite(rt) || rt <= 0.0) ++tally.bad_reports;
      tally.runtime_sum += rt;
      if (!r.report.success) ++tally.job_failures;
    }
    if (tracer != nullptr && !threw) {
      const service::WorkloadStatus st = svc.status(h);
      LogEntry e;
      e.op = i;
      e.tenant = static_cast<std::uint32_t>(op.tenant);
      e.service = static_cast<std::uint32_t>(fleet_.service_index(op.tenant));
      e.input_bytes = req.input_bytes != 0 ? req.input_bytes : stream_.initial_input(op.tenant);
      e.runtime = r.report.runtime;
      e.cost = r.report.cost;
      e.success = r.report.success;
      e.shed = shed;
      e.in_window = in_window;
      e.outcome = r.outcome;
      e.tuned_after = st.tuned;
      e.tunings_after = static_cast<std::uint32_t>(st.tunings);
      e.production_runs_after = static_cast<std::uint32_t>(st.production_runs);
      e.serve_us = us;
      if (!shed) e.signature = transfer::characterize(r.report);
      tracer->log(k, e, st);
    }
  }

  Fleet& fleet_;
  const OpStream& stream_;
  const Spec& spec_;
  const std::size_t threads_;
  Clock::time_point start_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> exhausted_{false};
  std::mutex failure_mu_;
  std::exception_ptr failure_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) throw std::invalid_argument("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Result-line checks; each failure is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// The outcome cross-check: per-op tallies against the services' health()
/// deltas over the same phase, plus the report sanity checks.
void check_phase(Checks& c, const Tally& t, const HealthTotals& d, const char* phase) {
  const std::string p = std::string(phase) + ": ";
  c.expect(d.served == t.served + t.retrieved, p + "health served != served + retrieved");
  c.expect(d.retrieved == t.retrieved, p + "health retrieved != tallied retrieved");
  c.expect(d.degraded == t.degraded, p + "health degraded != tallied degraded");
  c.expect(d.shed == t.shed, p + "health shed != tallied shed");
  c.expect(t.bad_reports == 0, p + "a report without a finite runtime > 0");
}

struct Phase {
  Tally tally;
  HealthTotals delta;
  HealthTotals end;
  double wall_s = 0.0;
  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(tally.attempted()) / wall_s : 0.0;
  }
};

class Bench {
 public:
  Bench(Args args, std::size_t threads)
      : args_(std::move(args)),
        spec_(spec_for(args_.workload, args_.smoke)),
        threads_(threads) {
    for (const auto& n : workload::workload_names()) shapes_.push_back(workload::make_workload(n));
    stream_ = std::make_unique<OpStream>(spec_, args_.seed, shapes_.size());
    // Room for any op count a run can reach (far above the measured rates);
    // a run that got there would end its window early and say so.
    max_ops_ = spec_.warmup_ops + static_cast<std::uint64_t>(args_.seconds * 400000.0);
  }

  const Spec& spec() const { return spec_; }
  std::size_t threads() const { return threads_; }

  /// One set-up: construct the services, warm up (tenants submit on their
  /// first visit).
  /// Returns its duration in seconds.
  double setup(Tracer* tracer) {
    teardown();
    const auto t0 = Clock::now();
    fleet_ = std::make_unique<Fleet>(spec_, *stream_, args_.seed, shapes_,
                                     stream_->tenants_for(max_ops_));
    clients_ = std::make_unique<Clients>(*fleet_, *stream_, spec_, threads_);
    (void)clients_->run(spec_.warmup_ops, std::nullopt, tracer, /*in_window=*/false);
    return seconds_since(t0);
  }

  Phase window(Tracer* tracer) {
    Phase p;
    const HealthTotals before = fleet_->health();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args_.seconds));
    p.tally = clients_->run(max_ops_, deadline, tracer, /*in_window=*/true);
    p.wall_s = seconds_since(t0);
    p.end = fleet_->health();
    p.delta = p.end - before;
    if (clients_->exhausted()) std::fprintf(stderr, "note: op stream exhausted early\n");
    return p;
  }

  void teardown() {
    clients_.reset();
    fleet_.reset();
  }

  std::vector<service::ServiceOptions> options() const {
    std::vector<service::ServiceOptions> out;
    for (std::size_t k = 0; k < spec_.services; ++k) {
      out.push_back(service_options(spec_, args_.seed, k));
    }
    return out;
  }

  void fill_shapes(Trace& t, std::size_t tenants) const {
    t.shapes = shapes_;
    t.tenant_shape.resize(tenants);
    for (std::size_t i = 0; i < tenants; ++i) {
      t.tenant_shape[i] = static_cast<std::uint32_t>(stream_->shape(i));
    }
  }

  std::size_t tenants_touched(std::uint64_t ops) const { return stream_->tenants_for(ops); }
  std::uint64_t ops_claimed() const { return clients_->next_op(); }

 private:
  Args args_;
  Spec spec_;
  std::size_t threads_;
  std::vector<std::shared_ptr<const workload::Workload>> shapes_;
  std::unique_ptr<OpStream> stream_;
  std::uint64_t max_ops_ = 0;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<Clients> clients_;
};

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

void print_result(bool correct, const Tally& t, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted()),
              static_cast<unsigned long long>(t.shed + t.threw));
  bool first = true;
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

void summarize(const char* label, const Phase& p) {
  const Tally& t = p.tally;
  std::printf("{\"phase\": \"%s\", \"attempted\": %llu, \"wall_s\": %.3f, \"served\": %llu, "
              "\"retrieved\": %llu, \"degraded\": %llu, \"shed\": %llu, \"threw\": %llu, "
              "\"latency_samples\": %zu, \"tuning_sessions\": %llu, \"kb_records\": %zu, "
              "\"retrieval_entries\": %zu, \"ops_by_second\": [",
              label, static_cast<unsigned long long>(t.attempted()), p.wall_s,
              static_cast<unsigned long long>(t.served),
              static_cast<unsigned long long>(t.retrieved),
              static_cast<unsigned long long>(t.degraded),
              static_cast<unsigned long long>(t.shed), static_cast<unsigned long long>(t.threw),
              static_cast<std::size_t>(t.jobs()),
              static_cast<unsigned long long>(p.delta.tuning_sessions),
              p.end.kb_records, p.end.retrieval_entries);
  for (std::size_t i = 0; i < t.seconds.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(t.seconds[i].ops));
  }
  std::printf("]}\n");
}

/// --trace 0: the tenant-facing metrics, tracing off.
int run_end_to_end(Bench& bench, Checks& checks) {
  std::vector<double> setups;
  for (std::size_t i = 0; i < bench.spec().setups; ++i) setups.push_back(bench.setup(nullptr));
  Phase p = bench.window(nullptr);
  summarize("window", p);
  check_phase(checks, p.tally, p.delta, "window");

  Tally& t = p.tally;
  Metrics m;
  put(m, "setup_s", percentile(setups, 0.5), "s");
  // The timing metrics, late_frac included, are medians over the window's
  // whole seconds, so a stall of the shared machine moves a second or two,
  // not the result.
  const auto by_second = [&](auto stat) {
    std::vector<double> v;
    const std::size_t whole = std::max<std::size_t>(1, static_cast<std::size_t>(p.wall_s));
    for (std::size_t i = 0; i < std::min(whole, t.seconds.size()); ++i) {
      v.push_back(stat(t.seconds[i]));
    }
    return percentile(v, 0.5);
  };
  put(m, "ops_per_s", by_second([](const Slot& s) { return static_cast<double>(s.ops); }), "1/s");
  put(m, "serve_p50_us", by_second([](Slot& s) { return percentile(s.lat_us, 0.50); }), "us");
  put(m, "serve_p99_us", by_second([](Slot& s) { return percentile(s.lat_us, 0.99); }), "us");
  put(m, "late_frac", by_second([](const Slot& s) { return frac(s.late, s.ops); }), "ratio");
  put(m, "full_quality_frac", frac(t.served + t.retrieved, t.attempted()), "ratio");
  put(m, "job_runtime_s_mean",
      t.jobs() > 0 ? t.runtime_sum / static_cast<double>(t.jobs()) : 0.0, "s");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
  bench.teardown();
  print_result(checks.ok(), t, m);
  return checks.ok() ? 0 : 1;
}

/// Serve spans of the traced window, classed by outcome and by whether a
/// tuning session ran (the tenant's status().tunings advanced).
void serve_span_metrics(const Trace& trace, Metrics& m, double& steady_p50) {
  std::vector<double> steady, retrieved, degraded, tuned, all;
  std::unordered_map<std::uint32_t, std::uint32_t> tunings;  // tenant -> last seen
  for (const LogEntry& e : trace.log) {
    auto& seen = tunings[e.tenant];
    const bool session = e.tunings_after > seen;
    seen = std::max(seen, e.tunings_after);
    if (!e.in_window || e.shed) continue;
    all.push_back(e.serve_us);
    if (session) {
      tuned.push_back(e.serve_us);
    } else if (e.outcome == service::ServeOutcome::kRetrieved) {
      retrieved.push_back(e.serve_us);
    } else if (e.outcome == service::ServeOutcome::kDegraded) {
      degraded.push_back(e.serve_us);
    } else {
      steady.push_back(e.serve_us);
    }
  }
  const auto classed = [&m](const char* cls, std::vector<double>& v) {
    put(m, std::string("service.serve_us.") + cls + ".p50", percentile(v, 0.50), "us");
    put(m, std::string("service.serve_us.") + cls + ".p99", percentile(v, 0.99), "us");
  };
  classed("steady", steady);
  classed("retrieved", retrieved);
  classed("degraded", degraded);
  classed("tuned", tuned);
  steady_p50 = percentile(steady, 0.50);
  put(m, "service.serve_us.p999", percentile(all, 0.999), "us");
  put(m, "service.serve_us.max", all.empty() ? 0.0 : *std::max_element(all.begin(), all.end()),
      "us");
}

/// --trace 1: an untraced run for reference, the traced run, then the
/// serial replay of its op log through benchmark-owned layer instances.
/// The reference sets up as often as --trace 0 does: a process's first
/// window ran up to 30% slower than one after a few set-ups.
int run_traced(Bench& bench, Checks& checks) {
  for (std::size_t i = 0; i < bench.spec().setups; ++i) (void)bench.setup(nullptr);
  const Phase plain = bench.window(nullptr);
  summarize("untraced", plain);
  check_phase(checks, plain.tally, plain.delta, "untraced");

  Trace trace;
  Phase p;
  {
    Tracer t(bench.threads());
    (void)bench.setup(&t);
    p = bench.window(&t);
    bench.fill_shapes(trace, bench.tenants_touched(bench.ops_claimed()));
    bench.teardown();  // the replay builds its own layers; free the live ones first
    t.finish(trace);
  }
  summarize("traced", p);
  check_phase(checks, p.tally, p.delta, "traced");
  trace.services = bench.options();

  Metrics m;
  double steady_p50 = 0.0;
  serve_span_metrics(trace, m, steady_p50);
  const Tally& t = p.tally;
  const HealthTotals& d = p.delta;
  put(m, "service.ops.served", static_cast<double>(t.served), "count");
  put(m, "service.ops.retrieved", static_cast<double>(t.retrieved), "count");
  put(m, "service.ops.degraded", static_cast<double>(t.degraded), "count");
  put(m, "service.ops.shed", static_cast<double>(t.shed), "count");
  put(m, "service.tuning_sessions", static_cast<double>(d.tuning_sessions), "count");
  put(m, "service.retrieval.hits", static_cast<double>(d.retrieved), "count");
  put(m, "service.retrieval.misses", static_cast<double>(d.misses), "count");
  put(m, "service.retrieval.fallbacks", static_cast<double>(d.fallbacks), "count");
  put(m, "workload.executions_per_op", frac(d.cache_hits + d.cache_misses, t.attempted()),
      "count");
  put(m, "workload.eval_cache_hit_frac", frac(d.cache_hits, d.cache_hits + d.cache_misses),
      "ratio");
  put(m, "trace.overhead_frac", 1.0 - p.ops_per_s() / plain.ops_per_s(), "ratio");
  put(m, "service.fail_frac", frac(t.shed + t.threw, t.attempted()), "ratio");
  put(m, "service.job_fail_frac", frac(t.job_failures, t.jobs()), "ratio");

  const ReplayResult r = replay(trace);
  for (const auto& [name, metric] : r.metrics) m[name] = metric;
  // Without steady ops (fleet_churn) there is nothing to attribute.
  put(m, "service.steady_unattributed_us.p50",
      steady_p50 > 0.0 ? steady_p50 - r.steady_parts_us : 0.0, "us");

  checks.expect(r.flat_mismatches == 0, "RetrievalSnapshot::query differs from query_flat");
  checks.expect(r.execute_mismatches == 0, "replayed execution differs from the served report");
  // The replay queries wherever try_retrieve would; a hit needs a query.
  checks.expect(d.retrieved <= r.queries, "more retrieval hits than replayed queries");
  // The replay's knowledge bases must reach the live ones' scale. Replayed
  // sessions warm-start from the replay's own state, so a tuner that stopped
  // early could shift the count slightly; none has so far.
  checks.expect(std::fabs(static_cast<double>(r.records) - static_cast<double>(p.end.kb_records)) <=
                    0.01 * static_cast<double>(p.end.kb_records),
                "replayed knowledge-base records differ from the live total by more than 1%");
  std::printf("{\"phase\": \"replay\", \"flat_checks\": %zu, \"execute_checks\": %zu, "
              "\"queries\": %zu, \"live_queries\": %llu, \"records\": %zu, "
              "\"live_records\": %zu, \"log_entries\": %zu}\n",
              r.flat_checks, r.execute_checks, r.queries,
              static_cast<unsigned long long>(d.retrieved + d.misses), r.records,
              p.end.kb_records, trace.log.size());
  print_result(checks.ok(), p.tally, m);
  return checks.ok() ? 0 : 1;
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    (void)spec_for(args.workload, args.smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 2;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t threads = std::clamp<std::size_t>(hc, 1, 4);
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"smoke\": %s, \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
              "\"native_kernels\": %s, \"nproc\": %u, \"client_threads\": %zu, "
              "\"commit\": \"%s\"}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, args.smoke ? "true" : "false", PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              PERFBENCH_NATIVE_KERNELS ? "true" : "false", hc, threads, args.commit.c_str());
  Bench bench(args, threads);
  Checks checks;
  return args.trace == 0 ? run_end_to_end(bench, checks) : run_traced(bench, checks);
}

}  // namespace
}  // namespace stune::perfbench

int main(int argc, char** argv) {
  try {
    return stune::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 1;
  }
}

// perfbench: the repository benchmark binary.
//
// One binary, three workloads, each driven in-process through the
// library's public entry points only:
//
//   plan-cold      plan / plan_uniform / plan_het on six paper cells
//                  (CLI-default PlannerConfig), from cold caches.
//   serve-backlog  OPT-30B on cluster 5 serves 2x10^4 Poisson CNN requests
//                  through OfflineEngine::serve_continuous, ~70x over
//                  capacity (deep queue, saturated KV pool).
//   churn-steady   OPT-13B on cluster 7: WeightPrep::prepare, then
//                  ElasticFleetEngine::serve under a leave / join / price /
//                  join / leave membership timeline with ILP replanning.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// A run repeats "cold caches -> set-up -> timed pass" until --seconds is
// used up and reports medians.  --trace 0 reports the end-to-end metrics;
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics: wall-clock spans the benchmark records around every
// public call, plus the library's own obs counters.  Spans stay in memory
// and are written to --spans at exit.  The last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "core/repair.h"
#include "elastic/cost_model.h"
#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "obs/metrics.h"
#include "quality/quality_model.h"
#include "quant/quant_cache.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "runtime/weight_prep.h"
#include "sim/pipeline.h"
#include "sim/plan_io.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "workload/arrivals.h"
#include "workload/datasets.h"
#include "workload/profile.h"

namespace {

using Clock = std::chrono::steady_clock;
using sq::hw::Bitwidth;
using sq::model::ModelId;

/// Per ILP solve.  Far above any solve in these workloads, so results do
/// not depend on host speed; a planner call whose wall time reaches it
/// counts as failed (it may have stopped early).
constexpr double kIlpTimeLimitS = 100.0;

/// Set-ups per timed pass: at least one, more while they add up to less
/// than kSetupBudgetS (short set-ups need more samples to be steady).
/// setup_s is the median over every set-up of the run.
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 0.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const std::vector<Bitwidth>& all_bits() {
  static const std::vector<Bitwidth> bits = {Bitwidth::kFp16, Bitwidth::kInt8,
                                             Bitwidth::kInt4, Bitwidth::kInt3};
  return bits;
}

int worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Fingerprints: FNV-1a over an exact (hexfloat) rendering.

class Fnv {
 public:
  Fnv& add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 1099511628211ull;
    return *this;
  }
  Fnv& add(double d) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", d);
    return add(std::string(buf));
  }
  Fnv& add(std::uint64_t u) { return add(std::to_string(u)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string plan_fingerprint(const sq::sim::ExecutionPlan& plan) {
  return Fnv().add(sq::sim::plan_to_string(plan)).hex();
}

void add_request_stats(Fnv& f, const sq::runtime::RequestStats& s) {
  f.add(std::uint64_t{s.feasible}).add(s.failure).add(s.submitted)
      .add(s.completed).add(s.lost).add(s.preemptions).add(s.admission_blocked)
      .add(s.iterations).add(s.output_tokens).add(s.total_seconds)
      .add(s.goodput_tok_s).add(s.mean_latency_s).add(s.p50_latency_s)
      .add(s.p95_latency_s).add(s.mean_queue_s).add(s.kv_peak_utilization);
  for (const auto& e : s.events) f.add(e);
  for (const auto& o : s.requests) {
    f.add(o.id).add(std::uint64_t{o.completed}).add(std::uint64_t{o.lost})
        .add(o.arrive_s).add(o.admit_s).add(o.finish_s).add(o.output_tokens)
        .add(o.preemptions);
  }
}

std::string request_stats_fingerprint(const sq::runtime::RequestStats& s) {
  Fnv f;
  add_request_stats(f, s);
  return f.hex();
}

std::string elastic_stats_fingerprint(const sq::elastic::ElasticStats& s) {
  Fnv f;
  f.add(std::uint64_t{s.feasible}).add(s.failure).add(s.events_applied)
      .add(s.joins_offered).add(s.joins_accepted).add(s.joins_rejected)
      .add(s.leaves).add(s.price_events).add(s.scale_downs).add(s.replans)
      .add(s.migrations).add(s.drains).add(s.restarts).add(s.migrated_kv_bytes)
      .add(s.migration_s).add(s.device_seconds).add(s.dollars)
      .add(s.tokens_per_dollar).add(s.fleet.output_tokens)
      .add(s.fleet.makespan_s).add(s.fleet.aggregate_tok_s);
  for (const auto& e : s.events) f.add(e);
  for (const auto& e : s.fleet.events) f.add(e);
  for (const auto& j : s.fleet.jobs) add_request_stats(f, j.continuous);
  return f.hex();
}

// ---------------------------------------------------------------------------
// Tracing: one span per public call, recorded from the benchmark's side.

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::string name;
  double start_s = 0.0;  ///< Seconds since the tracer's origin.
  double end_s = 0.0;
};

class Tracer {
 public:
  void start(std::uint64_t run_id) {
    run_id_ = run_id;
    origin_ = Clock::now();
  }
  void set_on(bool on) { on_ = on; }
  double now() const { return seconds_since(origin_); }

  /// Run `fn` inside a span named `name` (a plain call when tracing is off).
  template <typename F>
  decltype(auto) span(const char* name, F&& fn) {
    if (!on_) return fn();
    const std::size_t idx = open(name);
    struct Closer {
      Tracer* t;
      std::size_t idx;
      ~Closer() { t->close(idx); }
    } closer{this, idx};
    return fn();
  }

  /// Spans that started at or after `since_s` (one timed pass).
  std::vector<SpanRec> spans_since(double since_s) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SpanRec> out;
    for (const auto& s : spans_) {
      if (s.start_s >= since_s) out.push_back(s);
    }
    return out;
  }

  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream os(path);
    if (!os) return false;
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"schema\": \"perfbench.spans.v1\", \"run_id\": \"%016llx\", "
                  "\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                  static_cast<unsigned long long>(run_id_), workload.c_str(),
                  static_cast<unsigned long long>(seed));
    os << head;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n  {\"run_id\": \"%016llx\", \"id\": %llu, \"parent\": %llu, "
                    "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                    i == 0 ? "" : ",", static_cast<unsigned long long>(run_id_),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.name.c_str(),
                    s.start_s, s.end_s);
      os << buf;
    }
    os << "\n]}\n";
    return os.good();
  }

 private:
  std::size_t open(const char* name) {
    std::lock_guard<std::mutex> lk(mu_);
    SpanRec s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.name = name;
    s.start_s = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[idx].end_s = now();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  bool on_ = false;
  std::uint64_t run_id_ = 0;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::vector<std::size_t> stack_;
};

Tracer g_trace;

// ---------------------------------------------------------------------------
// Shared result plumbing.

/// Counts operations, records check failures and collects fingerprints.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> fingerprints;  ///< "label fingerprint", in order.

  /// `n` operations of which `bad` failed (`what` names them).
  void ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) {
      std::fprintf(stderr, "perfbench: FAILED %llu of %llu: %s\n",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(n), what.c_str());
    }
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "perfbench: CHECK %s\n", what.c_str());
    }
  }
  void fingerprint(const std::string& label, const std::string& fp) {
    fingerprints.push_back(label + " " + fp);
  }
};

/// A planner call is one operation: it fails when infeasible, when
/// ExecutionPlan::validate rejects the plan, when it breaks the quality
/// budget (`budget` < 0: none), or when its wall time reached the ILP time
/// limit (the solve may have stopped early).
void check_plan(Ledger& led, const std::string& label, bool feasible,
                const std::string& failure, const sq::sim::ExecutionPlan& plan,
                double omega, const sq::model::LlmSpec& m, const sq::hw::Cluster& c,
                double budget, double wall_s) {
  std::string why;
  if (!feasible) {
    why = "infeasible: " + failure;
  } else if (const std::string err = plan.validate(m, c); !err.empty()) {
    why = "invalid plan: " + err;
  } else if (budget >= 0.0 && omega > budget * (1.0 + 1e-9) + 1e-12) {
    why = "quality budget broken";
  } else if (wall_s >= kIlpTimeLimitS) {
    why = "planner wall time reached the ILP time limit";
  }
  led.ops(1, why.empty() ? 0 : 1, label + " " + why);
  if (feasible) led.fingerprint("plan " + label, plan_fingerprint(plan));
}

void check_plan(Ledger& led, const std::string& label, const sq::core::PlanResult& r,
                const sq::model::LlmSpec& m, const sq::hw::Cluster& c, double budget,
                double wall_s) {
  check_plan(led, label, r.feasible, r.failure, r.plan, r.total_omega, m, c, budget,
             wall_s);
}

/// Requests are operations: each must complete and none may be lost.
void check_requests(Ledger& led, const std::string& label,
                    const sq::runtime::RequestStats& s, std::uint64_t expected) {
  led.check(s.feasible, label + " serving infeasible: " + s.failure);
  led.check(s.requests.size() == expected && s.submitted == expected,
            label + " request count mismatch");
  led.check(s.completed + s.lost <= s.submitted, label + " request accounting");
  std::uint64_t bad = expected - std::min<std::uint64_t>(expected, s.requests.size());
  for (const auto& o : s.requests) bad += !o.completed || o.lost;
  led.ops(expected, bad, label + " requests lost or incomplete");
  led.fingerprint("requests " + label, request_stats_fingerprint(s));
}

sq::model::LlmSpec resolve_model(Ledger& led, ModelId id, const char* name,
                                 int layers) {
  sq::model::LlmSpec m = sq::model::spec(id);
  led.check(m.name == name && m.n_layers == layers,
            std::string("model spec mismatch for ") + name + ": got " + m.name);
  return m;
}

/// Planner knobs of the serving workloads' set-up plans: the benches'
/// bench_config() (8 topologies, 2 (eta, xi) pairs, groups of 8) with the
/// ILP time limit raised out of the way.
sq::core::PlannerConfig serving_config() {
  sq::core::PlannerConfig cfg;
  cfg.ilp_time_limit_s = kIlpTimeLimitS;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 8;
  cfg.group_size = 8;
  cfg.num_threads = worker_threads();
  return cfg;
}

/// Simulated tokens per dollar: `tokens` over the cost-model charge of
/// holding `cluster` for `seconds`.
double tokens_per_dollar(double tokens, const sq::hw::Cluster& cluster,
                         double seconds) {
  const double dollars = sq::elastic::CostModel().charge(cluster, seconds);
  return dollars > 0.0 ? tokens / dollars : 0.0;
}

/// The profile every workload plans against: 256 CNN/DailyMail requests
/// at batch 128, sampled with the CLI's fixed seed.  The planning instance
/// stays fixed because branch-and-bound work differs up to 2x between
/// request samples; --seed draws the traffic that is served instead.
sq::workload::Profile planning_profile() {
  return sq::workload::make_profile(
      sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 256, 1234), 128);
}

/// What one pass produced, filled by Workload::verify (untimed).
struct PassResult {
  Ledger led;
  Ledger eval;  ///< The first pass's extra simulation (not compared across passes).
  std::uint64_t ops = 0;  ///< Operations the timed pass completed.
  /// Deterministic simulated outcome (end-to-end sim_* metrics).
  double sim_tok_s = 0.0;
  double sim_p95_latency_s = 0.0;
  double sim_tokens_per_dollar = 0.0;
  /// Human-readable event log, printed to stderr for the first pass.
  std::vector<std::string> log;
  /// Program-side counts for the per-layer report (name -> value).
  std::map<std::string, double> counts;
};

/// A workload: set-up (timed as setup_s) builds the inputs from the seed;
/// run() is the timed pass and makes only the public calls; verify()
/// (untimed) checks and fingerprints what run() produced.  On the first
/// pass verify() also runs any extra simulation the sim_* metrics need.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void setup(std::uint64_t seed, Ledger& led) = 0;
  virtual void run() = 0;
  virtual void verify(PassResult& out, bool first_pass) = 0;
};

// ---------------------------------------------------------------------------
// plan-cold

struct CellSpec {
  ModelId id;
  const char* name;
  int layers;
  int cluster;
};

constexpr CellSpec kPlanCells[] = {
    {ModelId::kOpt30B, "OPT-30B", 48, 5},
    {ModelId::kOpt13B, "OPT-13B", 40, 6},
    {ModelId::kQwen25_14B, "Qwen2.5-14B-Instruct", 48, 3},
    {ModelId::kOpt66B, "OPT-66B", 64, 7},
    {ModelId::kLlama33_70B, "Llama-3.3-70B-Instruct", 80, 4},
    {ModelId::kQwen25_32B, "Qwen2.5-32B-Instruct", 64, 2},
};

/// One planner call's outcome and wall time.
struct PlanCall {
  sq::core::PlanResult result;
  double wall_s = 0.0;
};

struct PlanCell {
  std::string label;
  sq::model::LlmSpec model;
  sq::hw::Cluster cluster;
  std::vector<sq::workload::Request> requests;  ///< Served to evaluate plans.
  std::unique_ptr<sq::cost::LatencyCostModel> latency;
  std::unique_ptr<sq::quality::QualityModel> quality;
  std::unique_ptr<sq::core::Planner> planner;
  PlanCall uniform, het, splitquant;
  double budget = -1.0;  ///< SplitQuant's quality budget (Uniform's omega).
};

class PlanCold final : public Workload {
 public:
  static constexpr int kRequests = 256;
  static constexpr std::uint64_t kBatch = 128;

  void setup(std::uint64_t seed, Ledger& led) override {
    const sq::workload::Profile profile = planning_profile();
    for (std::size_t i = 0; i < std::size(kPlanCells); ++i) {
      const CellSpec& cs = kPlanCells[i];
      auto c = std::make_unique<PlanCell>();
      c->model = resolve_model(led, cs.id, cs.name, cs.layers);
      c->label = c->model.name + "/c" + std::to_string(cs.cluster);
      c->cluster = sq::hw::paper_cluster(cs.cluster);
      c->requests = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail,
                                         kRequests, seed * 1000 + i);
      c->latency = std::make_unique<sq::cost::LatencyCostModel>(c->model);
      g_trace.span("Planner::profile_all", [&] {
        sq::core::Planner::profile_all(*c->latency, c->cluster, all_bits());
      });
      c->quality = std::make_unique<sq::quality::QualityModel>(c->model, all_bits());
      c->planner = std::make_unique<sq::core::Planner>(
          c->model, c->cluster, profile.planning_batch(c->model), *c->latency,
          *c->quality);
      cells_.push_back(std::move(c));
    }
  }

  /// Per cell: Uniform, Het, then SplitQuant held to Uniform's quality
  /// (the paper's Sec. VI-C protocol) under otherwise CLI-default knobs.
  void run() override {
    sq::core::PlannerConfig cfg;
    cfg.ilp_time_limit_s = kIlpTimeLimitS;
    cfg.num_threads = worker_threads();
    const auto call = [](const char* span, auto&& fn) {
      const auto t0 = Clock::now();
      PlanCall pc{g_trace.span(span, fn), 0.0};
      pc.wall_s = seconds_since(t0);
      return pc;
    };
    for (auto& c : cells_) {
      c->uniform =
          call("Planner::plan_uniform", [&] { return c->planner->plan_uniform(cfg); });
      c->het = call("Planner::plan_het", [&] { return c->planner->plan_het(cfg); });
      sq::core::PlannerConfig scfg = cfg;
      c->budget = c->uniform.result.feasible ? c->uniform.result.total_omega : -1.0;
      scfg.max_ppl_delta = c->budget;
      c->splitquant = call("Planner::plan", [&] { return c->planner->plan(scfg); });
    }
  }

  /// The sim_* metrics are geometric means over cells of the SplitQuant
  /// plans' simulated serving: whole-batch throughput (serve_requests),
  /// p95 latency of a continuous burst, and tokens per dollar.
  void verify(PassResult& out, bool first_pass) override {
    for (const auto& c : cells_) {
      const auto check = [&](const char* scheme, const PlanCall& pc, double budget) {
        check_plan(out.led, c->label + "/" + scheme, pc.result, c->model, c->cluster,
                   budget, pc.wall_s);
      };
      check("uniform", c->uniform, -1.0);
      check("het", c->het, -1.0);
      check("splitquant", c->splitquant, c->budget);
      out.ops += 3;
    }
    if (!first_pass) return;
    double log_tok = 0.0, log_p95 = 0.0, log_tpd = 0.0;
    int n = 0;
    for (const auto& c : cells_) {
      const sq::core::PlanResult& r = c->splitquant.result;
      if (!r.feasible) continue;
      const sq::runtime::OfflineEngine eng(c->cluster, c->model, r.plan);
      const auto ss = eng.serve_requests(c->requests, kBatch);
      std::vector<sq::workload::TimedRequest> burst;
      for (const auto& req : c->requests) burst.push_back({0.0, req});
      const auto rs = eng.serve_continuous(burst);
      out.eval.check(ss.feasible && ss.throughput_tok_s > 0.0,
                     c->label + " simulated serving failed");
      check_requests(out.eval, c->label + "/burst", rs, burst.size());
      if (!ss.feasible || rs.p95_latency_s <= 0.0) continue;
      log_tok += std::log(ss.throughput_tok_s);
      log_p95 += std::log(rs.p95_latency_s);
      log_tpd += std::log(
          tokens_per_dollar(ss.output_tokens, c->cluster, ss.total_seconds));
      ++n;
    }
    if (n > 0) {
      out.sim_tok_s = std::exp(log_tok / n);
      out.sim_p95_latency_s = std::exp(log_p95 / n);
      out.sim_tokens_per_dollar = std::exp(log_tpd / n);
    }
  }

 private:
  std::vector<std::unique_ptr<PlanCell>> cells_;
};

// ---------------------------------------------------------------------------
// Serving workloads share one shape: model + cluster + set-up plan.

struct ServingBase {
  sq::model::LlmSpec model;
  sq::hw::Cluster cluster;
  sq::sim::BatchWorkload planning;
  std::unique_ptr<sq::cost::LatencyCostModel> latency;
  std::unique_ptr<sq::quality::QualityModel> quality;
  sq::core::PlanResult plan;

  void build(Ledger& led, ModelId id, const char* name, int layers, int cluster_id) {
    model = resolve_model(led, id, name, layers);
    cluster = sq::hw::paper_cluster(cluster_id);
    planning = planning_profile().planning_batch(model);
    latency = std::make_unique<sq::cost::LatencyCostModel>(model);
    g_trace.span("Planner::profile_all", [&] {
      sq::core::Planner::profile_all(*latency, cluster, all_bits());
    });
    quality = std::make_unique<sq::quality::QualityModel>(model, all_bits());
    const sq::core::Planner planner(model, cluster, planning, *latency, *quality);
    const auto t0 = Clock::now();
    plan = g_trace.span("Planner::plan", [&] { return planner.plan(serving_config()); });
    check_plan(led, model.name + "/c" + std::to_string(cluster_id) + "/setup", plan,
               model, cluster, -1.0, seconds_since(t0));
  }
};

std::vector<sq::workload::TimedRequest> make_arrivals(const std::string& spec,
                                                      std::uint64_t seed, Ledger& led) {
  const sq::workload::ArrivalParse ap = sq::workload::parse_arrival_spec(spec);
  led.check(ap.ok, "arrival spec " + spec + ": " + ap.error);
  return g_trace.span("generate_arrivals", [&] {
    return sq::workload::generate_arrivals(ap.spec, sq::workload::Dataset::kCnnDailyMail,
                                           seed);
  });
}

/// Serving outcome: request checks, sim_* metrics and scheduler counts.
void add_serving(PassResult& out, const std::string& label,
                 const sq::runtime::RequestStats& s, std::uint64_t expected) {
  check_requests(out.led, label, s, expected);
  out.ops += s.completed;
  out.sim_tok_s = s.goodput_tok_s;
  out.sim_p95_latency_s = s.p95_latency_s;
  out.counts["runtime.iterations"] = static_cast<double>(s.iterations);
  out.counts["runtime.preemptions"] = static_cast<double>(s.preemptions);
  out.counts["runtime.admission_blocked"] = static_cast<double>(s.admission_blocked);
  out.counts["runtime.completed"] = static_cast<double>(s.completed);
  out.counts["runtime.kv_peak_utilization"] = s.kv_peak_utilization;
  out.counts["runtime.sim_queue_mean_s"] = s.mean_queue_s;
}

// ---------------------------------------------------------------------------
// serve-backlog

class ServeBacklog final : public Workload {
 public:
  static constexpr const char* kArrivals = "poisson:20000@0x20";

  void setup(std::uint64_t seed, Ledger& led) override {
    base_.build(led, ModelId::kOpt30B, "OPT-30B", 48, 5);
    arrivals_ = make_arrivals(kArrivals, seed, led);
  }

  void run() override {
    if (!base_.plan.feasible) return;
    const sq::runtime::OfflineEngine eng(base_.cluster, base_.model, base_.plan.plan);
    sq::runtime::ContinuousOptions opts;
    opts.num_threads = 1;
    stats_ = g_trace.span("OfflineEngine::serve_continuous",
                          [&] { return eng.serve_continuous(arrivals_, opts); });
  }

  void verify(PassResult& out, bool /*first_pass*/) override {
    add_serving(out, "serve-backlog", stats_, arrivals_.size());
    out.sim_tokens_per_dollar =
        tokens_per_dollar(stats_.output_tokens, base_.cluster, stats_.total_seconds);
  }

 private:
  ServingBase base_;
  std::vector<sq::workload::TimedRequest> arrivals_;
  sq::runtime::RequestStats stats_;
};

// ---------------------------------------------------------------------------
// churn-steady

/// One call of the elastic replanner callback, as the benchmark saw it.
struct ReplanCall {
  sq::hw::Cluster cluster;
  sq::elastic::ElasticReplanOutcome outcome;
  double wall_s = 0.0;
};

class ChurnSteady final : public Workload {
 public:
  static constexpr int kRequests = 10000;
  static constexpr double kRate = 0.5;  ///< Requests per second.
  static constexpr std::size_t kWeightRows = 512;
  static constexpr std::size_t kWeightCols = 512;

  void setup(std::uint64_t seed, Ledger& led) override {
    base_.build(led, ModelId::kOpt13B, "OPT-13B", 40, 7);
    char spec[64];
    std::snprintf(spec, sizeof spec, "poisson:%d@0x%g", kRequests, kRate);
    jobs_.assign(1, sq::runtime::FleetJob{});
    jobs_[0].name = "churn";
    jobs_[0].arrivals = make_arrivals(spec, seed, led);
    // Membership events spread over the arrival horizon, each far beyond
    // the autoscaler's 30 s cooldown from the previous one.
    const double h = kRequests / kRate;
    char tl[256];
    std::snprintf(tl, sizeof tl,
                  "leave:node1@%.1f,join:2xV100@%.1f,price:T4=0.45@%.1f,"
                  "join:2xT4@%.1f,leave:node1@%.1f",
                  0.15 * h, 0.35 * h, 0.5 * h, 0.65 * h, 0.8 * h);
    const sq::elastic::MembershipParse mp = sq::elastic::parse_membership_spec(tl);
    led.check(mp.ok, std::string("membership spec: ") + mp.error);
    timeline_ = mp.timeline;
    sq::tensor::Rng rng(seed ^ 0x5eedull);
    for (int l = 0; l < base_.model.n_layers; ++l) {
      sq::tensor::Tensor t(kWeightRows, kWeightCols);
      t.fill_normal(rng, 0.0f, 0.1f);
      weights_.push_back(std::move(t));
    }
  }

  void run() override {
    if (!base_.plan.feasible) return;
    auto prep = std::make_shared<const sq::runtime::WeightPrep>(
        [this](int layer) -> const sq::tensor::Tensor* {
          return layer >= 0 && layer < static_cast<int>(weights_.size())
                     ? &weights_[static_cast<std::size_t>(layer)]
                     : nullptr;
        });
    prep_ = g_trace.span("WeightPrep::prepare",
                         [&] { return prep->prepare(base_.plan.plan.layer_bits); });

    sq::runtime::ReplicaGroup rg;
    rg.cluster = base_.cluster;
    rg.plan = base_.plan.plan;
    rg.predicted_tok_s = base_.plan.predicted_throughput;
    sq::elastic::ElasticFleetEngine engine(base_.model, {rg});
    engine.set_weight_prep(prep);

    const auto inner = sq::core::make_elastic_replanner(
        base_.model, *base_.latency, *base_.quality, base_.planning, serving_config());
    sq::elastic::ElasticOptions opts;
    opts.timeline = &timeline_;
    opts.migration = sq::elastic::MigrationPolicy::kAuto;
    opts.fleet.num_threads = 1;
    replans_.clear();
    opts.replan = [&](const sq::hw::Cluster& changed, int attempt) {
      const auto t0 = Clock::now();
      auto r = g_trace.span("ElasticReplanner", [&] { return inner(changed, attempt); });
      replans_.push_back({changed, r, seconds_since(t0)});
      return r;
    };
    stats_ = g_trace.span("ElasticFleetEngine::serve",
                          [&] { return engine.serve(jobs_, opts); });
  }

  void verify(PassResult& out, bool /*first_pass*/) override {
    Ledger& led = out.led;
    const sq::elastic::ElasticStats& es = stats_;
    led.check(prep_.layers_total == weights_.size(), "weight prep layer count");
    for (std::size_t i = 0; i < replans_.size(); ++i) {
      const ReplanCall& rc = replans_[i];
      check_plan(led, "churn-steady/replan" + std::to_string(i), rc.outcome.feasible,
                 rc.outcome.failure, rc.outcome.plan, 0.0, base_.model, rc.cluster, -1.0,
                 rc.wall_s);
    }
    led.check(es.feasible && es.fleet.jobs.size() == 1,
              "elastic serving infeasible: " + es.failure);
    led.fingerprint("elastic churn-steady", elastic_stats_fingerprint(es));

    // Membership events: each must fire and take effect.  A leave that
    // matches nothing and a join the autoscaler rejects are ignored events.
    std::uint64_t ignored = es.joins_rejected;
    for (const auto& e : es.events) ignored += e.find("ignored") != std::string::npos;
    const std::uint64_t n_events = timeline_.events.size();
    const std::uint64_t missed = n_events - std::min(n_events, es.events_applied);
    led.ops(n_events, std::min(n_events, missed + ignored), "membership events ignored");
    if (es.fleet.jobs.size() == 1) {
      add_serving(out, "churn-steady", es.fleet.jobs[0].continuous,
                  jobs_[0].arrivals.size());
    }
    out.ops += n_events;
    out.sim_tokens_per_dollar = es.tokens_per_dollar;
    out.log = es.events;
    out.counts["elastic.replans"] = static_cast<double>(es.replans);
    out.counts["elastic.migrations"] = static_cast<double>(es.migrations);
  }

 private:
  ServingBase base_;
  std::vector<sq::runtime::FleetJob> jobs_;
  sq::elastic::MembershipTimeline timeline_;
  std::vector<sq::tensor::Tensor> weights_;
  sq::runtime::PrepStats prep_;
  std::vector<ReplanCall> replans_;
  sq::elastic::ElasticStats stats_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced pass.

const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"core.plan_call_s", "s"},
    {"core.baseline_call_s", "s"},
    {"core.phase_dominance_s", "s"},
    {"core.phase_greedy_s", "s"},
    {"core.phase_ilp_s", "s"},
    {"core.phase_refine_s", "s"},
    {"core.phase_validate_s", "s"},
    {"core.candidates_generated", "count"},
    {"core.candidates_pruned", "count"},
    {"core.candidates_validated", "count"},
    {"core.prune_ratio", "ratio"},
    {"solver.ilp_solves", "count"},
    {"solver.ilp_nodes", "count"},
    {"solver.nodes_per_s", "1/s"},
    {"cost.profile_s", "s"},
    {"cost.predict_cache_hit_ratio", "ratio"},
    {"sim.stage_cache_hit_ratio", "ratio"},
    {"sim.stage_cache_misses", "count"},
    {"workload.arrivals_s", "s"},
    {"runtime.serve_s", "s"},
    {"runtime.iterations", "count"},
    {"runtime.us_per_iteration", "us"},
    {"runtime.preemptions", "count"},
    {"runtime.preempt_per_completed", "ratio"},
    {"runtime.admission_blocked", "count"},
    {"runtime.kv_peak_utilization", "ratio"},
    {"runtime.sim_queue_mean_s", "s"},
    {"quant.prep_s", "s"},
    {"quant.layers_quantized", "count"},
    {"quant.layers_reused", "count"},
    {"quant.cache_hit_ratio", "ratio"},
    {"elastic.serve_s", "s"},
    {"elastic.replan_calls", "count"},
    {"elastic.replan_s", "s"},
    {"elastic.serve_self_s", "s"},
    {"elastic.replans", "count"},
    {"elastic.migrations", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.span_coverage", "ratio"},
};

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer numbers of one traced pass: span totals by name, the obs
/// registry's counters and phase timers, and the cache-counter deltas.
std::map<std::string, double> layer_sample(const std::vector<SpanRec>& setup_spans,
                                           const std::vector<SpanRec>& pass_spans,
                                           double pass_s, const PassResult& pr,
                                           const sq::sim::StageCacheStats& stage0,
                                           const sq::sim::StageCacheStats& stage1,
                                           std::uint64_t qhits, std::uint64_t qmisses) {
  std::map<std::string, double> span_s;
  double top_level = 0.0;
  std::uint64_t pass_root = 0;
  for (const auto& s : pass_spans) {
    span_s[s.name] += s.end_s - s.start_s;
    if (s.name == "timed_pass") pass_root = s.id;
  }
  for (const auto& s : pass_spans) {
    if (s.parent == pass_root && s.name != "timed_pass") top_level += s.end_s - s.start_s;
  }
  std::map<std::string, double> setup_s;
  for (const auto& s : setup_spans) setup_s[s.name] += s.end_s - s.start_s;
  std::uint64_t replan_calls = 0;
  for (const auto& s : pass_spans) replan_calls += s.name == "ElasticReplanner";

  const sq::obs::Snapshot snap = sq::obs::Registry::global().snapshot();
  const auto counter = [&](const char* name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  const auto hist_sum = [&](const char* name) {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.sum;
    }
    return 0.0;
  };
  const auto count = [&](const char* name) {
    const auto it = pr.counts.find(name);
    return it == pr.counts.end() ? 0.0 : it->second;
  };

  std::map<std::string, double> v;
  v["core.plan_call_s"] = span_s["Planner::plan"];
  v["core.baseline_call_s"] =
      span_s["Planner::plan_uniform"] + span_s["Planner::plan_het"];
  v["core.phase_dominance_s"] = hist_sum("planner.time.dominance_s");
  v["core.phase_greedy_s"] = hist_sum("planner.time.greedy_s");
  v["core.phase_ilp_s"] = hist_sum("planner.time.ilp_s");
  v["core.phase_refine_s"] = hist_sum("planner.time.refine_s");
  v["core.phase_validate_s"] = hist_sum("planner.time.validate_s");
  v["core.candidates_generated"] = counter("planner.candidates.generated");
  v["core.candidates_pruned"] = counter("planner.candidates.pruned");
  v["core.candidates_validated"] = counter("planner.candidates.validated");
  v["core.prune_ratio"] =
      ratio_or_zero(v["core.candidates_pruned"], v["core.candidates_generated"]);
  v["solver.ilp_solves"] = counter("planner.ilp.solves");
  v["solver.ilp_nodes"] = counter("planner.ilp.nodes");
  v["solver.nodes_per_s"] = ratio_or_zero(v["solver.ilp_nodes"], v["core.phase_ilp_s"]);
  v["cost.profile_s"] = setup_s["Planner::profile_all"];
  const double ph = counter("planner.predict_cache.hits");
  v["cost.predict_cache_hit_ratio"] =
      ratio_or_zero(ph, ph + counter("planner.predict_cache.misses"));
  const double sh = static_cast<double>(stage1.hits - stage0.hits);
  const double sm = static_cast<double>(stage1.misses - stage0.misses);
  v["sim.stage_cache_hit_ratio"] = ratio_or_zero(sh, sh + sm);
  v["sim.stage_cache_misses"] = sm;
  v["workload.arrivals_s"] = setup_s["generate_arrivals"];
  v["elastic.serve_s"] = span_s["ElasticFleetEngine::serve"];
  v["elastic.replan_calls"] = static_cast<double>(replan_calls);
  v["elastic.replan_s"] = span_s["ElasticReplanner"];
  v["elastic.serve_self_s"] =
      v["elastic.serve_s"] > 0.0 ? v["elastic.serve_s"] - v["elastic.replan_s"] : 0.0;
  v["elastic.replans"] = count("elastic.replans");
  v["elastic.migrations"] = count("elastic.migrations");
  // The scheduler's wall: serve_continuous on its own, or the elastic
  // serve minus its replanning children.
  v["runtime.serve_s"] = span_s["OfflineEngine::serve_continuous"] > 0.0
                             ? span_s["OfflineEngine::serve_continuous"]
                             : v["elastic.serve_self_s"];
  v["runtime.iterations"] = count("runtime.iterations");
  v["runtime.us_per_iteration"] =
      1e6 * ratio_or_zero(v["runtime.serve_s"], v["runtime.iterations"]);
  v["runtime.preemptions"] = count("runtime.preemptions");
  v["runtime.preempt_per_completed"] =
      ratio_or_zero(v["runtime.preemptions"], count("runtime.completed"));
  v["runtime.admission_blocked"] = count("runtime.admission_blocked");
  v["runtime.kv_peak_utilization"] = count("runtime.kv_peak_utilization");
  v["runtime.sim_queue_mean_s"] = count("runtime.sim_queue_mean_s");
  v["quant.prep_s"] = span_s["WeightPrep::prepare"];
  v["quant.layers_quantized"] = static_cast<double>(qmisses);
  v["quant.layers_reused"] = static_cast<double>(qhits);
  v["quant.cache_hit_ratio"] = ratio_or_zero(static_cast<double>(qhits),
                                             static_cast<double>(qhits + qmisses));
  v["trace.span_coverage"] = ratio_or_zero(top_level, pass_s);
  return v;
}

// ---------------------------------------------------------------------------
// Command line and the pass loop.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 && a->trace >= 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "plan-cold") return std::make_unique<PlanCold>();
  if (name == "serve-backlog") return std::make_unique<ServeBacklog>();
  if (name == "churn-steady") return std::make_unique<ChurnSteady>();
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metric(std::string& json, bool& first, const std::string& name,
                  double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0,
                unit);
  json += buf;
  first = false;
  std::fprintf(stderr, "perfbench: %-32s %.6g %s\n", name.c_str(), value, unit);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <plan-cold|serve-backlog|churn-steady> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = make_workload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool trace_mode = args.trace == 1;
  sq::tensor::set_kernel_threads(worker_threads());
  g_trace.start(std::hash<std::string>{}(
      args.workload + "/" + std::to_string(args.seed) + "/" + std::to_string(getpid()) +
      "/" + std::to_string(Clock::now().time_since_epoch().count())));

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<double> setup_s, untraced_s, traced_s;
  std::vector<std::string> first_fps;
  PassResult first;
  std::vector<std::map<std::string, double>> layers;

  const auto run_start = Clock::now();
  for (int it = 0;; ++it) {
    // Traced runs alternate: untraced passes (overhead baseline), traced
    // passes (per-layer numbers).
    const bool traced = trace_mode && it % 2 == 1;
    g_trace.set_on(traced);
    const auto it_start = Clock::now();

    // Set-up runs several times, each from cold process-wide caches (what
    // every CLI invocation pays); the last one's state is measured.
    Ledger setup_led;
    double setup_from = 0.0;
    double setup_total = 0.0;
    for (int rep = 0;
         rep < kMaxSetups && (rep == 0 || setup_total < kSetupBudgetS); ++rep) {
      sq::sim::stage_cache_clear();
      sq::quant::QuantCache::global().clear();
      setup_led = Ledger{};
      // A fresh instance, so no earlier state is alive during set-up and
      // the peak RSS is that of one set-up plus one pass.
      wl.reset();
      wl = make_workload(args.workload);
      setup_from = g_trace.now();
      const auto t_setup = Clock::now();
      g_trace.span("setup", [&] { wl->setup(args.seed, setup_led); });
      setup_s.push_back(seconds_since(t_setup));
      setup_total += setup_s.back();
    }
    const auto setup_spans = g_trace.spans_since(setup_from);

    sq::obs::Registry::global().reset();
    sq::obs::set_enabled(traced);
    const auto stage0 = sq::sim::stage_cache_stats();
    const std::uint64_t qh0 = sq::quant::QuantCache::global().hits();
    const std::uint64_t qm0 = sq::quant::QuantCache::global().misses();
    const double pass_from = g_trace.now();
    const auto t_pass = Clock::now();
    g_trace.span("timed_pass", [&] { wl->run(); });
    const double pass_s = seconds_since(t_pass);
    g_trace.set_on(false);
    sq::obs::set_enabled(false);
    const auto stage1 = sq::sim::stage_cache_stats();
    const std::uint64_t qhits = sq::quant::QuantCache::global().hits() - qh0;
    const std::uint64_t qmisses = sq::quant::QuantCache::global().misses() - qm0;
    PassResult pr;
    wl->verify(pr, it == 0);
    (traced ? traced_s : untraced_s).push_back(pass_s);
    std::fprintf(stderr, "perfbench: pass %d%s: set-up %.4f s, timed %.4f s\n", it,
                 traced ? " (traced)" : "", setup_s.back(), pass_s);
    if (traced) {
      layers.push_back(layer_sample(setup_spans, g_trace.spans_since(pass_from), pass_s,
                                    pr, stage0, stage1, qhits, qmisses));
    }

    std::vector<std::string> fps = setup_led.fingerprints;
    fps.insert(fps.end(), pr.led.fingerprints.begin(), pr.led.fingerprints.end());
    if (it == 0) {
      first_fps = fps;
      for (const Ledger* l : {&setup_led, &pr.led, &pr.eval}) {
        for (const auto& f : l->fingerprints) std::printf("fingerprint %s\n", f.c_str());
      }
      for (const auto& e : pr.log) {
        std::fprintf(stderr, "perfbench: event %s\n", e.c_str());
      }
      first = pr;
    } else if (fps != first_fps) {
      pr.led.check(false, "pass " + std::to_string(it) +
                              " fingerprints differ from the first pass");
    }
    for (const Ledger* l : {&setup_led, &pr.led, &pr.eval}) {
      attempted += l->attempted;
      failed += l->failed;
      correct = correct && l->correct;
    }

    const double it_s = seconds_since(it_start);
    const double elapsed = seconds_since(run_start);
    const bool have_enough = !trace_mode || (!untraced_s.empty() && !traced_s.empty());
    if (have_enough && elapsed + it_s > args.seconds) break;
  }

  std::string json;
  bool first_metric = true;
  if (!trace_mode) {
    const double wall = median(untraced_s);
    print_metric(json, first_metric, "setup_s", median(setup_s), "s");
    print_metric(json, first_metric, "wall_s", wall, "s");
    print_metric(json, first_metric, "ops_per_s",
                 ratio_or_zero(static_cast<double>(first.ops), wall), "1/s");
    print_metric(json, first_metric, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(json, first_metric, "sim_tok_s", first.sim_tok_s, "tok/s");
    print_metric(json, first_metric, "sim_p95_latency_s", first.sim_p95_latency_s, "s");
    print_metric(json, first_metric, "sim_tokens_per_dollar",
                 first.sim_tokens_per_dollar, "tok/USD");
  } else {
    std::map<std::string, std::vector<double>> per;
    for (const auto& ls : layers) {
      for (const auto& [k, v] : ls) per[k].push_back(v);
    }
    per["trace.overhead_ratio"] = {
        ratio_or_zero(median(traced_s), median(untraced_s)) - 1.0};
    for (const auto& [name, unit] : kLayerMetrics) {
      print_metric(json, first_metric, name, median(per[name]), unit);
    }
    for (const auto& ls : layers) {
      const auto it = ls.find("trace.span_coverage");
      if (it != ls.end() && it->second < 0.9) {
        correct = false;
        std::fprintf(stderr, "perfbench: CHECK span coverage %.3f below 0.9\n",
                     it->second);
      }
    }
    if (!args.spans.empty() && !g_trace.write(args.spans, args.workload, args.seed)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      correct = false;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

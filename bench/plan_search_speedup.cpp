// Plan-search scaling study for the parallel assigner: run the Fig. 9
// scheme sweep (Uniform + Het + SplitQuant) on a few representative cells
// at several `num_threads` settings and report wall-clock per setting.
//
// Each setting starts from a cold kernel-model cache and a fresh latency
// model so the comparison is fair; the chosen plans are asserted identical
// across settings (the planner's deterministic-reduction guarantee).
//
//   SQ_SPEEDUP_THREADS="1 2 4"  override the thread settings swept (each
//                               in [1, 256]; anything else exits 2)
//   SQ_BENCH_SMOKE=1            fixed {1, 2} settings for the CI gate
//   SQ_BENCH_JSON_DIR=<dir>     emit BENCH_plan_search_speedup.json; the
//                               plans fingerprint is gated (must never
//                               change), wall-clock columns are not, and
//                               the branch-and-bound node and simplex
//                               pivot totals are recorded so a solver
//                               regression shows in the artifact
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/pipeline.h"

namespace {

using Clock = std::chrono::steady_clock;

struct CaseDef {
  int cluster;
  sq::model::ModelId model;
};

// A capacity-stressed cell and a roomy cell, matching the Fig. 9 mapping.
const CaseDef kCases[] = {
    {5, sq::model::ModelId::kOpt30B},
    {3, sq::model::ModelId::kQwen25_14B},
};

/// SQ_SPEEDUP_THREADS: space-separated thread counts, each an integer in
/// [1, kMaxThreads].  A bad item prints one line and exits 2 before any
/// planning starts.
std::vector<int> thread_settings() {
  if (const char* env = std::getenv("SQ_SPEEDUP_THREADS")) {
    std::vector<int> out;
    std::istringstream in(env);
    for (std::string item; in >> item;) {
      int v = 0;
      const std::string err = sq::common::parse_flag_number(
          "SQ_SPEEDUP_THREADS", item, 1, sq::common::kMaxThreads, &v);
      if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
      }
      out.push_back(v);
    }
    if (!out.empty()) return out;
  }
  if (sq::bench::bench_smoke()) return {1, 2};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> out = {1};
  if (hw >= 2) out.push_back(2);
  if (hw >= 4) out.push_back(4);
  if (hw > 4) out.push_back(hw);
  return out;
}

/// Solver work summed over a sweep's plan calls.
struct SolverWork {
  long ilp_nodes = 0;
  long lp_pivots = 0;
};

/// One full scheme sweep over every case at `threads` workers; returns
/// wall-clock seconds, appends each chosen plan's serialized form to
/// `plans` and adds the solver work to `work`.
double sweep_once(int threads, std::vector<std::string>* plans, SolverWork* work) {
  double total = 0.0;
  for (const CaseDef& c : kCases) {
    const auto reqs = sq::workload::sample(
        sq::workload::Dataset::kCnnDailyMail, 512,
        1000 + static_cast<std::uint64_t>(c.cluster));
    // Fresh cell + cold caches so warm-up from a previous setting cannot
    // flatter this one.
    sq::sim::stage_cache_clear();
    const sq::bench::Cell cell(c.model, c.cluster, reqs, 256);
    sq::core::PlannerConfig cfg = sq::bench::bench_config();
    cfg.num_threads = threads;

    const auto t0 = Clock::now();
    const auto uni = cell.planner.plan_uniform(cfg);
    const auto het = cell.planner.plan_het(cfg);
    sq::core::PlannerConfig scfg = cfg;
    scfg.theta = 0.0;
    if (uni.feasible) scfg.max_ppl_delta = uni.total_omega;
    else if (het.feasible) scfg.max_ppl_delta = het.total_omega;
    const auto sqr = cell.planner.plan(scfg);
    const auto t1 = Clock::now();
    total += std::chrono::duration<double>(t1 - t0).count();

    for (const auto* r : {&uni, &het, &sqr}) {
      plans->push_back(r->feasible ? sq::sim::plan_to_string(r->plan)
                                   : "infeasible");
      work->ilp_nodes += r->ilp_nodes;
      work->lp_pivots += r->lp_pivots;
    }
  }
  return total;
}

}  // namespace

int main() {
  const std::vector<int> settings = thread_settings();
  std::printf("Plan-search scaling: Fig. 9 scheme sweep (uniform+het+splitquant) "
              "on %zu cells\nhardware threads: %u\n",
              std::size(kCases), std::thread::hardware_concurrency());
  sq::bench::rule(72);
  std::printf("%-12s %12s %12s %10s %10s   %s\n", "threads", "search(s)", "speedup",
              "ilp nodes", "pivots", "");

  sq::bench::BenchReport report("plan_search_speedup");
  report.meta("smoke",
              static_cast<std::int64_t>(sq::bench::bench_smoke() ? 1 : 0));
  report.meta("cells", static_cast<std::int64_t>(std::size(kCases)));

  double base = 0.0;
  std::vector<std::string> base_plans;
  bool all_identical = true;
  for (const int t : settings) {
    std::vector<std::string> plans;
    SolverWork work;
    const double s = sweep_once(t, &plans, &work);
    if (base == 0.0) {
      base = s;
      base_plans = plans;
    } else if (plans != base_plans) {
      all_identical = false;
    }
    const auto ks = sq::sim::stage_cache_stats();
    const double hit_pct = ks.hits + ks.misses > 0
                               ? 100.0 * static_cast<double>(ks.hits) /
                                     static_cast<double>(ks.hits + ks.misses)
                               : 0.0;
    std::printf("%-12d %12.2f %11.2fx %10ld %10ld   stage cache %.1f%% hit\n", t, s,
                base / s, work.ilp_nodes, work.lp_pivots, hit_pct);

    std::string all;
    for (const auto& p : plans) all += p;
    auto& row = report.add_row();
    row["threads"] = static_cast<std::int64_t>(t);
    row["search_s"] = s;  // wall-clock: recorded, never gated
    row["stage_cache_hit_pct"] = hit_pct;
    row["ilp_nodes"] = static_cast<std::int64_t>(work.ilp_nodes);  // informational
    row["lp_pivots"] = static_cast<std::int64_t>(work.lp_pivots);  // informational
    row["plans_fingerprint"] = sq::bench::fingerprint_text(all);
  }
  std::printf("plans identical across all thread settings: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  report.meta("plans_identical", static_cast<std::int64_t>(all_identical ? 1 : 0));
  if (!report.write()) return 1;
  return all_identical ? 0 : 1;
}

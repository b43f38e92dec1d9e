// Fig. 12 reproduction: SplitQuant's joint optimization vs `adabits`
// (pure adaptive quantization over a decoupled even partition) on
// clusters 5-8 — the ablation showing that partition, precision and
// micro-batching must be co-optimized.
//
// SQ_BENCH_JSON_DIR=<dir> additionally emits BENCH_fig12_adabits_ablation.json
// with per-cell throughputs and plan fingerprints.  The full sweep takes well
// under a second, so SQ_BENCH_SMOKE=1 keeps all four cells (it only tags the
// report); the fingerprints pin the planner's dominance check, which adopts
// the AdaBits plan where the profiling run says it is faster.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main() {
  sq::bench::BenchReport report("fig12_adabits_ablation");
  report.meta("smoke", static_cast<std::int64_t>(sq::bench::bench_smoke() ? 1 : 0));
  std::printf("Fig. 12: joint optimization vs pure adaptive quantization (adabits)\n");
  sq::bench::rule(95);
  std::printf("%-10s %-12s %14s %14s %10s\n", "cluster", "model", "adabits",
              "splitquant", "gain");

  struct Case {
    int cluster;
    sq::model::ModelId model;
  };
  sq::bench::GeoMean geo;
  for (const Case c : {Case{5, sq::model::ModelId::kOpt30B},
                       Case{6, sq::model::ModelId::kOpt30B},
                       Case{7, sq::model::ModelId::kOpt66B},
                       Case{8, sq::model::ModelId::kOpt30B}}) {
    const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128,
                                           41 + static_cast<std::uint64_t>(c.cluster));
    sq::bench::Cell cell(c.model, c.cluster, reqs, 128);
    auto cfg = sq::bench::bench_config();
    cfg.custom_backend = true;  // clusters 5-8 run the custom backend
    const auto ada = cell.planner.plan_adabits(cfg);
    sq::core::PlannerConfig scfg = cfg;
    scfg.theta = 0.0;
    if (ada.feasible) scfg.max_ppl_delta = ada.total_omega;
    const auto sqr = cell.planner.plan(scfg);
    const double t_ada =
        ada.feasible ? cell.serve(ada.plan, sq::runtime::Backend::kCustom) : 0.0;
    const double t_sq =
        sqr.feasible ? cell.serve(sqr.plan, sq::runtime::Backend::kCustom) : 0.0;
    const double gain = sq::bench::ratio(t_sq, t_ada);
    std::printf("%-10d %-12s %14.2f %14.2f %9.2fx\n", c.cluster,
                cell.model.name.c_str(), t_ada, t_sq, gain);
    geo.add(gain);

    auto& row = report.add_row();
    row["cluster"] = static_cast<std::int64_t>(c.cluster);
    row["model"] = cell.model.name;
    row["adabits_tok_s"] = t_ada;
    row["splitquant_tok_s"] = t_sq;
    row["gain"] = gain;
    row["adabits_fingerprint"] =
        ada.feasible ? sq::bench::plan_fingerprint(ada.plan) : std::string("-");
    row["splitquant_fingerprint"] =
        sqr.feasible ? sq::bench::plan_fingerprint(sqr.plan) : std::string("-");
  }
  if (geo.count() > 0) {
    std::printf("\ngeo-mean gain of joint optimization: %.2fx "
                "(paper: SplitQuant wins in all cells)\n", geo.value());
    report.meta("geo_gain", geo.value());
  }
  return report.write() ? 0 : 1;
}

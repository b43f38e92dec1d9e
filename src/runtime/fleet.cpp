#include "runtime/fleet.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>

#include "common/spec_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sq::runtime {

namespace {

/// Deterministic seconds rendering for the event log.
std::string fmt_s(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fs", s);
  return buf;
}

/// Mutable serving state of one replica group.  Owned by exactly one
/// scheduler worker at a time (groups are the unit of parallel execution),
/// so no synchronization is needed.
struct GroupState {
  ReplicaGroup group;                 ///< Current cluster, index map, plan.
  sq::sim::FaultSchedule schedule;    ///< Group-local indices, fleet clock.
  double rate_tok_s = 1.0;            ///< LPT speed weight.
  double elapsed_us = 0.0;            ///< Group-local simulated clock.
  bool retired = false;
  std::vector<std::string> events;
};

/// True when every batch of `job` can hold at least one request on the
/// group's current (cluster, plan): weights fit and the tightest stage has
/// KV room for a single full-context request.  A continuous job is probed
/// with its largest request (clamped to the model's context limit, exactly
/// as the request scheduler clamps).
bool can_run(const GroupState& st, const sq::model::LlmSpec& model,
             const FleetJob& job) {
  for (const auto& b : job.batches) {
    if (max_concurrency(st.group.cluster, model, st.group.plan, b) == 0) return false;
  }
  if (!job.arrivals.empty()) {
    std::uint64_t prompt = 1;
    std::uint64_t gen = 1;
    for (const auto& a : job.arrivals) {
      prompt = std::max(prompt, a.request.prompt_tokens);
      gen = std::max(gen, a.request.output_tokens);
    }
    sq::sim::BatchWorkload probe;
    probe.batch_size = 1;
    probe.prompt_len = std::max<std::uint64_t>(1, std::min(prompt, model.pos_s - 1));
    probe.gen_tokens =
        std::max<std::uint64_t>(1, std::min(gen, model.pos_s - probe.prompt_len));
    if (max_concurrency(st.group.cluster, model, st.group.plan, probe) == 0) return false;
  }
  return true;
}

/// Committed output tokens of a job, batch or continuous.
double job_tokens(const JobOutcome& out) {
  return out.recovery.serve.output_tokens + out.continuous.output_tokens;
}

}  // namespace

double FleetJob::work_tokens() const {
  double t = 0.0;
  for (const auto& b : batches) {
    t += static_cast<double>(b.batch_size) *
         static_cast<double>(b.prompt_len + b.gen_tokens);
  }
  for (const auto& a : arrivals) {
    t += static_cast<double>(a.request.prompt_tokens + a.request.output_tokens);
  }
  return t;
}

JobsParse parse_jobs_spec(const std::string& spec) {
  JobsParse out;
  for (const std::string& item : sq::common::split_spec_items(spec)) {
    const auto bad = [&](const std::string& why) {
      out.ok = false;
      out.error = "bad --jobs item '" + item + "': " + why;
      out.items.clear();
      return out;
    };
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      return bad("want <name>:<requests>");
    }
    const std::string name = item.substr(0, colon);
    const std::string count = item.substr(colon + 1);
    if (name.find(':') != std::string::npos) return bad("name contains ':'");
    for (const char c : name) {
      if (sq::common::spec_space(c)) return bad("name contains whitespace");
    }
    // Strict base-10 (common/spec_util.h): whitespace, signs and trailing
    // junk are all rejected.
    long long n = 0;
    if (!sq::common::parse_spec_uint(count, &n)) {
      return bad("count is not a number");
    }
    if (n < 1) return bad("count must be >= 1");
    if (n > 1000000) return bad("count exceeds 1e6");
    out.items.push_back({name, static_cast<std::uint64_t>(n)});
  }
  out.ok = true;
  return out;
}

FleetEngine::FleetEngine(sq::model::LlmSpec model,
                         std::vector<ReplicaGroup> groups, Backend backend,
                         sq::sim::KernelModelOptions kernel)
    : model_(std::move(model)),
      groups_(std::move(groups)),
      backend_(backend),
      kernel_(kernel) {}

FleetStats FleetEngine::serve(const std::vector<FleetJob>& jobs,
                              const FleetOptions& opts) const {
  FleetStats stats;
  if (groups_.empty()) {
    stats.feasible = false;
    stats.failure = "fleet has no replica groups";
    return stats;
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].batches.empty() && !jobs[j].arrivals.empty()) {
      stats.feasible = false;
      stats.failure = "job '" + jobs[j].name +
                      "' has both batches and arrivals (want exactly one)";
      return stats;
    }
  }

  const std::size_t n_groups = groups_.size();
  std::vector<GroupState> state(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const ReplicaGroup& rg = groups_[g];
    const std::string err = rg.plan.validate(model_, rg.cluster);
    if (!err.empty()) {
      stats.feasible = false;
      stats.failure =
          "group " + std::to_string(g) + " plan invalid: " + err;
      return stats;
    }
    GroupState& st = state[g];
    st.group = rg;
    st.rate_tok_s = rg.predicted_tok_s > 0.0 ? rg.predicted_tok_s : 1.0;
    // Translate the fleet-level schedule into group-local indices; events
    // on devices outside this group are inert here (they belong to some
    // other group or to no group at all).
    if (opts.faults != nullptr) {
      const std::vector<int>& map = rg.to_original;
      for (sq::sim::FaultEvent e : opts.faults->events) {
        if (!map.empty()) {
          const auto it = std::find(map.begin(), map.end(), e.device);
          e.device = it == map.end() ? -1 : static_cast<int>(it - map.begin());
        }
        if (e.device < 0 || e.device >= rg.cluster.device_count()) continue;
        st.schedule.events.push_back(e);
      }
      st.schedule.normalize();
    }
  }

  stats.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) stats.jobs[j].job = jobs[j].name;

  // ---- Scheduling rounds: LPT assignment, parallel group execution,
  // re-assignment of jobs stranded on retired groups. -------------------
  std::unique_ptr<sq::common::ThreadPool> pool;
  const int n_threads = sq::common::resolve_threads(opts.num_threads);
  if (n_threads > 1 && n_groups > 1 && !sq::common::on_pool_worker()) {
    pool = std::make_unique<sq::common::ThreadPool>(
        std::min<int>(n_threads, static_cast<int>(n_groups)));
  }

  std::vector<std::size_t> pending(jobs.size());
  std::iota(pending.begin(), pending.end(), 0);

  while (!pending.empty()) {
    std::vector<std::size_t> active;
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (!state[g].retired) active.push_back(g);
    }
    if (active.empty()) {
      for (const std::size_t j : pending) {
        JobOutcome& out = stats.jobs[j];
        out.failure = "no serving groups remain (all retired)";
        stats.events.push_back("job '" + jobs[j].name + "' lost: " + out.failure);
      }
      break;
    }

    // LPT order: work proxy descending, input index ascending on ties.
    std::vector<std::size_t> order = pending;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return jobs[a].work_tokens() > jobs[b].work_tokens();
                     });

    // Greedy finish-time assignment over the groups' predicted rates,
    // starting from each group's already-elapsed timeline.
    std::vector<double> load_s(n_groups, 0.0);
    for (const std::size_t g : active) load_s[g] = state[g].elapsed_us * 1e-6;
    std::vector<std::vector<std::size_t>> queue(n_groups);
    std::vector<std::size_t> still_pending;
    for (const std::size_t j : order) {
      std::size_t best = n_groups;
      double best_t = std::numeric_limits<double>::infinity();
      for (const std::size_t g : active) {
        if (!can_run(state[g], model_, jobs[j])) continue;
        const double t = load_s[g] + jobs[j].work_tokens() / state[g].rate_tok_s;
        if (t < best_t) {
          best_t = t;
          best = g;
        }
      }
      if (best == n_groups) {
        JobOutcome& out = stats.jobs[j];
        out.group = -1;
        out.failure = "rejected: no replica group can hold the job";
        ++stats.jobs_rejected;
        stats.events.push_back("job '" + jobs[j].name + "' " + out.failure);
        continue;
      }
      queue[best].push_back(j);
      load_s[best] += jobs[j].work_tokens() / state[best].rate_tok_s;
    }

    // Execute every group's queue; a group's jobs run in order, groups run
    // concurrently.  Each task only touches its own GroupState and its own
    // JobOutcome slots, so results never depend on worker interleaving.
    sq::common::parallel_for(pool.get(), n_groups, [&](std::size_t g) {
      GroupState& st = state[g];
      for (const std::size_t j : queue[g]) {
        if (st.retired) break;  // Remaining queue re-assigned below.
        const FleetJob& job = jobs[j];

        const sq::sim::FaultSchedule shifted =
            sq::sim::schedule_from(st.schedule, st.elapsed_us);
        RecoveryOptions ropts;
        ropts.faults = shifted.empty() ? nullptr : &shifted;
        ropts.replan = opts.replan;
        ropts.max_retries = opts.max_retries;
        ropts.backoff_s = opts.backoff_s;
        ropts.max_replan_attempts = opts.max_replan_attempts;
        ropts.replan_penalty_s = opts.replan_penalty_s;

        OfflineEngine eng(st.group.cluster, model_, st.group.plan, backend_,
                          kernel_);
        if (prep_) eng.set_weight_prep(prep_);
        JobOutcome& out = stats.jobs[j];
        out.group = static_cast<int>(g);
        out.start_s = st.elapsed_us * 1e-6;
        // A continuous job's arrival timeline starts at the job's start
        // instant on this group; the re-based schedule speaks the same
        // job-local clock, so the scheduler's absolute-time contract holds.
        // Lost requests (unservable alone) fail the job's completeness
        // accounting but do not retire the group — only structural failures
        // and unrepaired permanent faults do.
        const bool batch = job.arrivals.empty();
        if (batch) {
          out.recovery = eng.serve(job.batches, ropts);
        } else {
          out.continuous = eng.serve_continuous(job.arrivals, ropts);
        }
        const RecoveryStats& rec = out.recovery;
        const RequestStats& crs = out.continuous;
        const double wall_s = batch ? rec.wall_seconds : crs.total_seconds;
        const std::string& failure = batch ? rec.serve.failure : crs.failure;
        out.end_s = out.start_s + wall_s;
        out.completed = batch ? rec.serve.feasible && rec.lost_requests == 0
                              : crs.feasible && !crs.fault_permanent;
        if (!out.completed) {
          out.failure = failure.empty() ? "serving aborted" : failure;
        }
        st.elapsed_us += wall_s * 1e6;

        std::string done =
            std::to_string(static_cast<long long>(
                batch ? rec.serve.output_tokens : crs.output_tokens)) +
            " tokens";
        if (!batch) {
          done += " (" + std::to_string(crs.completed) + "/" +
                  std::to_string(crs.submitted) + " requests)";
        }
        st.events.push_back("job '" + job.name + "' [" + fmt_s(out.start_s) +
                            " .. " + fmt_s(out.end_s) + "] " +
                            (out.completed ? done : "FAILED: " + out.failure));
        for (const auto& e : batch ? rec.events : crs.events) {
          st.events.push_back("  " + e);
        }

        // Fold a repair made inside the job's run into the group's standing
        // state: replay the engine's plan switch adopting its repaired plan,
        // and remap the remaining schedule to the new local indices.
        const sq::sim::ExecutionPlan& repaired =
            batch ? rec.final_plan : crs.final_plan;
        if ((batch ? rec.final_generation : crs.final_generation) > 0) {
          PlanSwitch sw = switch_plan(
              st.group, repaired.excluded_devices, &st.schedule,
              [&](const sq::hw::Cluster&, int) { return std::optional(repaired); },
              1);
          if (!sw.ok) {
            st.retired = true;  // Every device excluded; already reported.
          } else {
            for (auto& e : sw.faults.events) {
              e.device = sw.from_index[static_cast<std::size_t>(e.device)];
            }
            sw.faults.normalize();
            // The repaired plan came out of a fresh planner run and lost
            // the shard stamps; re-apply them so provenance survives.
            sw.next.plan.shard_index = st.group.plan.shard_index;
            sw.next.plan.num_shards = st.group.plan.num_shards;
            st.group = std::move(sw.next);
            st.schedule = std::move(sw.faults);
          }
        }
        if (!out.completed) {
          st.retired = true;
          st.events.push_back("group retired: " + out.failure);
        }
      }
    });

    // Sequential reduction in (group, queue position) order.  A group's
    // jobs run strictly in queue order and the worker stops right after a
    // failure, so everything queued behind the first failure never ran and
    // goes back to the pending pool.
    for (std::size_t g = 0; g < n_groups; ++g) {
      bool seen_failure = false;
      for (const std::size_t j : queue[g]) {
        if (seen_failure) {
          still_pending.push_back(j);
          continue;
        }
        const JobOutcome& out = stats.jobs[j];
        if (out.completed) {
          ++stats.jobs_completed;
        } else {
          // The failing job itself is consumed: its in-flight requests are
          // lost exactly as in single-group fault-tolerant serving.
          seen_failure = true;
        }
        // A job fills one of `recovery` (batch) and `continuous`; the other
        // stays zero.
        stats.output_tokens += job_tokens(out);
        stats.faults_hit += out.recovery.faults_hit + out.continuous.faults_hit;
        stats.retries += out.recovery.retries + out.continuous.retries;
        stats.repairs +=
            out.recovery.repairs_succeeded + out.continuous.repairs_succeeded;
      }
      if (seen_failure) ++stats.groups_retired;
    }
    std::sort(still_pending.begin(), still_pending.end());
    stats.jobs_reassigned += still_pending.size();
    pending = std::move(still_pending);
  }

  // ---- Final aggregates (group-major, deterministic). ------------------
  stats.group_busy_s.assign(n_groups, 0.0);
  stats.group_jobs.assign(n_groups, 0);
  for (std::size_t g = 0; g < n_groups; ++g) {
    stats.group_busy_s[g] = state[g].elapsed_us * 1e-6;
    for (const auto& line : state[g].events) {
      stats.events.push_back("group " + std::to_string(g) + ": " + line);
    }
  }
  for (const JobOutcome& out : stats.jobs) {
    if (out.group >= 0 && out.end_s > out.start_s) {
      ++stats.group_jobs[static_cast<std::size_t>(out.group)];
    }
  }
  stats.makespan_s = 0.0;
  for (const double b : stats.group_busy_s) {
    stats.makespan_s = std::max(stats.makespan_s, b);
  }
  if (stats.makespan_s > 0.0) {
    stats.aggregate_tok_s = stats.output_tokens / stats.makespan_s;
  }

  if (observe_ && sq::obs::enabled()) {
    sq::obs::gauge("fleet.groups").set(static_cast<double>(n_groups));
    sq::obs::counter("fleet.jobs.submitted").add(jobs.size());
    sq::obs::counter("fleet.jobs.completed").add(stats.jobs_completed);
    sq::obs::counter("fleet.jobs.rejected").add(stats.jobs_rejected);
    sq::obs::counter("fleet.jobs.reassigned").add(stats.jobs_reassigned);
    sq::obs::counter("fleet.groups.retired").add(stats.groups_retired);
    sq::obs::counter("fleet.faults").add(stats.faults_hit);
    sq::obs::counter("fleet.repairs").add(stats.repairs);
    sq::obs::gauge("fleet.makespan_s").set(stats.makespan_s);
    sq::obs::gauge("fleet.aggregate_tok_s").set(stats.aggregate_tok_s);
    auto& job_hist =
        sq::obs::histogram("fleet.job_seconds", sq::obs::BucketLayout::kSeconds);
    // One deterministic, group-ordered span stream (group timelines are
    // concurrent; the `group` attribute disambiguates overlaps).
    sq::obs::TraceSink sink;
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t j = 0; j < stats.jobs.size(); ++j) {
        const JobOutcome& out = stats.jobs[j];
        if (out.group != static_cast<int>(g) || out.end_s <= out.start_s) {
          continue;
        }
        job_hist.observe(out.end_s - out.start_s);
        sq::obs::Span span;
        span.name = "fleet.job";
        span.start_us = out.start_s * 1e6;
        span.end_us = out.end_s * 1e6;
        span.attrs = {{"group", static_cast<double>(g)},
                      {"job", static_cast<double>(j)},
                      {"tokens", job_tokens(out)},
                      {"completed", out.completed ? 1.0 : 0.0}};
        sink.add(std::move(span));
      }
    }
    sq::obs::Registry::global().record_spans(sink.take());
  }
  return stats;
}

}  // namespace sq::runtime

#include "runtime/engine.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sq::runtime {

namespace {

/// Plan repair after a permanent failure, shared by the batch and the
/// continuous recovery loops: exclude every device lost so far from the
/// ORIGINAL cluster (baking the schedule's permanent stragglers in) and
/// climb the replanner ladder, counting each attempt.
PlanSwitch repair_plan(const sq::hw::Cluster& original,
                       const sq::sim::ExecutionPlan& active,
                       const std::vector<int>& failed,
                       const RecoveryOptions& opts, int generation,
                       const WeightPrep* prep, bool ob,
                       std::uint64_t* attempts, double* wall_s) {
  if (!opts.replan) return {};  // No-repair baseline.
  const PlanAttempt attempt = [&](const sq::hw::Cluster& degraded, int a)
      -> std::optional<sq::sim::ExecutionPlan> {
    ++*attempts;
    if (ob) sq::obs::counter("fault.repairs.attempted").add();
    ReplanOutcome outcome = opts.replan(degraded, a);
    *wall_s += outcome.solve_seconds;
    if (ob) {
      sq::obs::histogram("fault.replan_wall_s", sq::obs::BucketLayout::kSeconds)
          .observe(outcome.solve_seconds);
    }
    if (!outcome.feasible) return std::nullopt;
    return std::move(outcome.plan);
  };
  return switch_plan({original, {}, active}, failed, opts.faults, attempt,
                     opts.max_replan_attempts, generation, prep);
}

}  // namespace

OfflineEngine::OfflineEngine(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                             sq::sim::ExecutionPlan plan, Backend backend,
                             sq::sim::KernelModelOptions kernel)
    : cluster_(std::move(cluster)),
      model_(std::move(model)),
      plan_(std::move(plan)),
      backend_(backend),
      kernel_(kernel) {}

double OfflineEngine::backend_efficiency() const {
  // The custom PyTorch-native backend trades kernel polish for hardware
  // reach (Sec. V); the discount is calibrated to keep its throughput in
  // the same band the paper reports for the custom-backend experiments.
  return backend_ == Backend::kVllmStyle ? 1.0 : 0.72;
}

ServeStats OfflineEngine::serve(
    const std::vector<sq::sim::BatchWorkload>& batches) const {
  return serve(batches, RecoveryOptions{}).serve;
}

RecoveryStats OfflineEngine::serve(
    const std::vector<sq::sim::BatchWorkload>& batches,
    const RecoveryOptions& opts) const {
  RecoveryStats stats;
  const std::string err = plan_.validate(model_, cluster_);
  if (!err.empty()) {
    stats.serve.feasible = false;
    stats.serve.failure = "invalid plan: " + err;
    return stats;
  }
  if (prep_) prep_->prepare(plan_.layer_bits);

  sq::sim::PipelineOptions popts;
  popts.kernel = kernel_;
  popts.backend_efficiency = backend_efficiency();

  // Observability: metrics and trace spans are recorded only when this
  // engine was marked observable AND the registry is enabled; recording is
  // read-only with respect to the stats (asserted by obs_test.cpp).
  const bool ob = observe_ && sq::obs::enabled();
  sq::obs::TraceSink sink;
  if (ob) popts.trace = &sink;

  const bool have_faults =
      opts.faults != nullptr && !opts.faults->events.empty();
  if (ob && have_faults) {
    sq::obs::counter("fault.injected").add(opts.faults->events.size());
  }

  // Serving state that plan repair rewrites mid-run.  The active schedule
  // starts as the caller's; after a repair it is a filtered copy that drops
  // windows already baked into the degraded cluster (derated stragglers)
  // so capability loss is never double-counted.
  ReplicaGroup active{cluster_, {}, plan_};
  sq::sim::FaultSchedule repaired_schedule;
  const sq::sim::FaultSchedule* schedule = opts.faults;
  std::vector<int> failed;  // accumulated permanent losses, original idx.

  double clock_us = 0.0;   // Full timeline: productive + lost + backoff + replan.
  double bubble_sum = 0.0;
  bool stopped = false;    // Remaining workload lost (no-repair / infeasible).

  // Permanent plan repair: swap the serving state over to the repaired
  // plan.  Returns false when serving cannot continue.
  const auto repair = [&](double abort_global_us) {
    PlanSwitch sw = repair_plan(cluster_, active.plan, failed, opts,
                                stats.final_generation + 1, prep_.get(), ob,
                                &stats.repairs_attempted, &stats.replan_wall_s);
    if (!sw.ok) return false;

    ++stats.repairs_succeeded;
    ++stats.final_generation;
    active = std::move(sw.next);
    repaired_schedule = std::move(sw.faults);
    schedule = &repaired_schedule;

    const double penalty_us = opts.replan_penalty_s * 1e6;
    stats.replan_us += penalty_us;
    clock_us += penalty_us;
    stats.events.push_back(
        "[" + log_time(abort_global_us) + "] repair: generation " +
        std::to_string(stats.final_generation) + " on " +
        active.cluster.summary() + ", resume at " + log_time(clock_us));
    if (ob) {
      sq::obs::counter("fault.repairs.succeeded").add();
      sq::obs::histogram("fault.replan_s", sq::obs::BucketLayout::kSeconds)
          .observe(opts.replan_penalty_s);
      sink.base_us = 0.0;
      sink.add({"recovery.repair",
                abort_global_us,
                clock_us,
                {{"generation", static_cast<double>(stats.final_generation)},
                 {"failed_device", static_cast<double>(failed.back())}}});
    }
    return true;
  };

  for (std::size_t b = 0; b < batches.size() && !stopped; ++b) {
    const sq::sim::BatchWorkload& batch = batches[b];
    BatchSchedule sched = schedule_batch(active.cluster, model_, active.plan, batch);
    if (!sched.weights_fit) {
      stats.serve.feasible = false;
      stats.serve.failure = "OOM: plan weights exceed device memory";
      return stats;
    }
    if (sched.waves.size() > 1) {
      ++stats.serve.capped_batches;
      if (ob) {
        sq::obs::counter("runtime.concurrency_cap_events").add();
        sq::obs::histogram("runtime.concurrency_cap", sq::obs::BucketLayout::kPow2)
            .observe(static_cast<double>(sched.waves.front()));
      }
    }

    std::uint64_t done_in_batch = 0;
    std::size_t wi = 0;
    int wave_retries = 0;
    while (wi < sched.waves.size()) {
      const std::uint64_t wave = sched.waves[wi];
      sq::sim::BatchWorkload w = batch;
      w.batch_size = wave;
      sq::sim::ExecutionPlan p = active.plan;
      p.prefill_microbatch = std::min<std::uint64_t>(sched.eta, wave);
      p.decode_microbatch = std::min<std::uint64_t>(sched.xi, wave);

      sq::sim::FaultView fv;
      fv.schedule = schedule;
      fv.base_us = clock_us;
      fv.to_original = active.to_original.empty() ? nullptr : &active.to_original;
      popts.faults = have_faults ? &fv : nullptr;
      sink.base_us = clock_us;

      const auto r = sq::sim::simulate_batch(active.cluster, model_, p, w, popts);
      if (r.oom) {
        stats.serve.feasible = false;
        stats.serve.failure =
            "OOM during execution on device " + std::to_string(r.oom_device);
        return stats;
      }

      if (!r.faulted) {
        if (ob) {
          sq::obs::counter("runtime.waves").add();
          using sq::obs::BucketLayout;
          sq::obs::histogram("runtime.wave_size", BucketLayout::kPow2)
              .observe(static_cast<double>(wave));
          sq::obs::histogram("runtime.prefill_microbatch", BucketLayout::kPow2)
              .observe(static_cast<double>(p.prefill_microbatch));
          sq::obs::histogram("runtime.decode_microbatch", BucketLayout::kPow2)
              .observe(static_cast<double>(p.decode_microbatch));
          sq::obs::histogram("runtime.wave_bubble", BucketLayout::kRatio)
              .observe(r.bubble_fraction);
          // KV occupancy high-water mark: tightest device's KV reservation
          // share of its usable memory this wave.
          double kv_occ = 0.0;
          for (const auto& dm : r.memory.devices) {
            const double usable = static_cast<double>(
                active.cluster.spec(dm.device).usable_memory_bytes());
            if (usable > 0.0) {
              kv_occ = std::max(kv_occ, static_cast<double>(dm.kv_cache) / usable);
            }
          }
          sq::obs::gauge("runtime.kv_occupancy.hwm").set(kv_occ);
        }
        clock_us += r.total_us;
        stats.serve.total_seconds += r.total_us * 1e-6;
        stats.serve.output_tokens +=
            static_cast<double>(wave) * static_cast<double>(w.gen_tokens);
        bubble_sum += r.bubble_fraction;
        ++stats.serve.waves;
        done_in_batch += wave;
        ++wi;
        wave_retries = 0;
        continue;
      }

      // The wave hit a failure window: everything simulated up to the abort
      // is discarded (the wave re-runs from scratch after recovery).
      ++stats.faults_hit;
      const double abort_global_us = clock_us + r.total_us;
      stats.lost_us += r.total_us;
      clock_us = abort_global_us;
      stats.events.push_back(
          "[" + log_time(abort_global_us) + "] " +
          (r.fault_transient ? "transient" : "permanent") + " failure on device " +
          std::to_string(r.fault_device) + ", wave of " + std::to_string(wave) +
          " aborted after " + log_time(r.total_us));
      if (ob) {
        sq::obs::counter("fault.aborts").add();
        sq::obs::histogram("fault.lost_us", sq::obs::BucketLayout::kTimeUs)
            .observe(r.total_us);
      }

      if (r.fault_transient && wave_retries < opts.max_retries) {
        // Wait out the window plus backoff, then re-run the same wave.
        ++wave_retries;
        ++stats.retries;
        const double window_end_global = (clock_us - r.total_us) + r.fault_until_us;
        const double wait_us =
            std::max(0.0, window_end_global - clock_us) + opts.backoff_s * 1e6;
        stats.backoff_us += wait_us;
        clock_us += wait_us;
        stats.events.push_back("[" + log_time(abort_global_us) + "] retry " +
                               std::to_string(wave_retries) + " after backoff, at " +
                               log_time(clock_us));
        if (ob) sq::obs::counter("fault.retries").add();
        continue;
      }

      // Permanent failure (or transient retry budget exhausted — the device
      // is then treated as lost for the remainder of the run).
      failed.push_back(r.fault_device);
      if (repair(abort_global_us)) {
        // Re-schedule the requests this batch still owes under the new plan.
        sq::sim::BatchWorkload rest = batch;
        rest.batch_size = batch.batch_size - done_in_batch;
        sched = schedule_batch(active.cluster, model_, active.plan, rest);
        if (!sched.weights_fit) {
          stats.serve.failure = "repair infeasible: repaired plan weights OOM";
        } else {
          wi = 0;
          wave_retries = 0;
          continue;
        }
      }
      // No repair possible: the remaining workload is lost.
      stats.lost_requests += batch.batch_size - done_in_batch;
      for (std::size_t i = b + 1; i < batches.size(); ++i) {
        stats.lost_requests += batches[i].batch_size;
      }
      if (stats.serve.failure.empty()) {
        stats.serve.failure =
            opts.replan ? "no feasible repair plan; remaining workload lost"
                        : "device failed with repair disabled; remaining "
                          "workload lost";
      }
      stats.events.push_back("[" + log_time(abort_global_us) + "] " +
                             stats.serve.failure + " (" +
                             std::to_string(stats.lost_requests) + " requests)");
      stopped = true;
      break;
    }
    if (!stopped) ++stats.serve.batches;
  }

  if (ob) {
    sq::obs::counter("runtime.batches").add(stats.serve.batches);
    if (have_faults) {
      sq::obs::gauge("fault.lost_us.total").set(stats.lost_us);
      if (stats.lost_requests > 0) {
        sq::obs::counter("fault.lost_requests").add(stats.lost_requests);
      }
    }
    sq::obs::Registry::global().record_spans(sink.take());
  }
  stats.final_plan = std::move(active.plan);
  stats.wall_seconds = clock_us * 1e-6;
  if (stats.serve.total_seconds > 0.0) {
    stats.serve.throughput_tok_s =
        stats.serve.output_tokens / stats.serve.total_seconds;
  }
  if (stats.wall_seconds > 0.0) {
    stats.goodput_tok_s = stats.serve.output_tokens / stats.wall_seconds;
  }
  if (stats.serve.waves > 0) {
    stats.serve.mean_bubble = bubble_sum / static_cast<double>(stats.serve.waves);
  }
  return stats;
}

ServeStats OfflineEngine::serve_requests(
    const std::vector<sq::workload::Request>& requests, std::uint64_t batch_size,
    std::uint64_t chunk_tokens) const {
  return serve_requests(requests, batch_size, RecoveryOptions{}, chunk_tokens).serve;
}

RecoveryStats OfflineEngine::serve_requests(
    const std::vector<sq::workload::Request>& requests, std::uint64_t batch_size,
    const RecoveryOptions& opts, std::uint64_t chunk_tokens) const {
  const auto batches =
      sq::workload::make_batches(requests, model_, batch_size, chunk_tokens);
  return serve(batches, opts);
}

RequestStats OfflineEngine::serve_continuous(
    const std::vector<sq::workload::TimedRequest>& arrivals,
    const ContinuousOptions& opts) const {
  return serve_continuous(arrivals, RecoveryOptions{}, opts);
}

RequestStats OfflineEngine::serve_continuous(
    const std::vector<sq::workload::TimedRequest>& arrivals,
    const RecoveryOptions& opts, const ContinuousOptions& copts) const {
  const std::string err = plan_.validate(model_, cluster_);
  if (!err.empty()) {
    RequestStats bad;
    bad.submitted = arrivals.size();
    bad.final_plan = plan_;
    bad.feasible = false;
    bad.failure = "invalid plan: " + err;
    return bad;
  }
  RequestStats total = segment_total(arrivals);
  if (prep_) prep_->prepare(plan_.layer_bits);

  const bool ob = observe_ && sq::obs::enabled();
  const bool have_faults =
      opts.faults != nullptr && !opts.faults->events.empty();
  if (ob && have_faults) {
    sq::obs::counter("fault.injected").add(opts.faults->events.size());
  }

  // Serving state that plan repair rewrites between generations (same
  // protocol as `serve`: the active schedule is filtered after a repair so
  // capability loss baked into the degraded cluster is not double-counted).
  ReplicaGroup active{cluster_, {}, plan_};
  sq::sim::FaultSchedule repaired_schedule;
  const sq::sim::FaultSchedule* schedule = have_faults ? opts.faults : nullptr;
  std::vector<int> failed;  // accumulated permanent losses, original idx.

  std::vector<std::size_t> remaining(arrivals.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  double resume_us = copts.start_us;

  while (!remaining.empty()) {
    std::vector<sq::workload::TimedRequest> sub;
    sub.reserve(remaining.size());
    for (const std::size_t id : remaining) sub.push_back(arrivals[id]);

    RequestScheduler sched(active.cluster, model_, active.plan,
                           backend_efficiency(), kernel_);
    sched.set_observe(observe_);
    ContinuousOptions c = copts;
    c.start_us = resume_us;
    c.stop_us = std::numeric_limits<double>::infinity();
    c.resume = nullptr;
    c.faults = schedule;
    c.to_original = active.to_original.empty() ? nullptr : &active.to_original;
    const RequestStats st = sched.serve(sub, c);

    // Arrivals keep their absolute times, so the sub-serve's clock is the
    // global clock.
    std::vector<std::size_t> incomplete;
    merge_segment(total, st, remaining, &incomplete);

    if (!st.feasible) {
      // Structural failure (invalid/OOM repaired plan): unrecoverable.
      total.feasible = false;
      total.failure = st.failure;
    } else if (!st.fault_permanent) {
      break;  // clean finish on this generation
    } else {
      failed.push_back(st.fault_device);
      if (incomplete.empty()) break;  // the failure stranded nothing
      // Permanent plan repair (as in `serve`): swap the serving state over
      // and resume past the replanning charge.
      const double abort_us = st.fault_s * 1e6;
      double wall_s = 0.0;  // RequestStats carries no planner wall time.
      PlanSwitch sw = repair_plan(cluster_, active.plan, failed, opts,
                                  total.final_generation + 1, prep_.get(), ob,
                                  &total.repairs_attempted, &wall_s);
      if (sw.ok) {
        ++total.repairs_succeeded;
        ++total.final_generation;
        active = std::move(sw.next);
        repaired_schedule = std::move(sw.faults);
        schedule = repaired_schedule.events.empty() ? nullptr : &repaired_schedule;
        resume_us = abort_us + opts.replan_penalty_s * 1e6;
        total.events.push_back(
            "[" + log_time(abort_us) + "] repair: generation " +
            std::to_string(total.final_generation) + " on " +
            active.cluster.summary() + ", resume at " + log_time(resume_us));
        if (ob) sq::obs::counter("fault.repairs.succeeded").add();
        remaining = std::move(incomplete);
        continue;
      }
      total.fault_permanent = true;
      total.fault_device = st.fault_device;
      total.fault_s = st.fault_s;
      total.failure =
          opts.replan ? "no feasible repair plan; remaining requests lost"
                      : "device failed with repair disabled; remaining "
                        "requests lost";
      total.events.push_back("[" + log_time(abort_us) + "] " +
                             total.failure + " (" +
                             std::to_string(incomplete.size()) + " requests)");
      if (ob) sq::obs::counter("fault.lost_requests").add(incomplete.size());
    }
    total.lost += incomplete.size();
    for (const std::size_t id : incomplete) total.requests[id].lost = true;
    break;
  }

  total.final_plan = std::move(active.plan);
  finalize_request_aggregates(total);
  return total;
}

}  // namespace sq::runtime

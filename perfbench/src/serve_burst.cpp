#include "serve_burst.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "layers.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace pb {

namespace {

constexpr const char* kKinds[] = {"salt", "nanocar", "Al-1000"};

serve::SchedulerConfig scheduler_config(int n_jobs) {
  serve::SchedulerConfig sc;
  sc.n_pools = 1;
  sc.threads_per_pool = kWorkers;
  sc.queue_mode = parallel::QueueMode::WorkStealing;
  sc.max_drivers = kDrivers;
  sc.max_queued_total = n_jobs + 1;
  sc.default_quota.max_queued = n_jobs + 1;
  sc.preempt_slice_steps = kPreemptSlice;
  sc.mode = serve::SchedMode::Deadline;
  return sc;
}

serve::JobRequest job_request(const BurstPlan& plan, const BurstPlan::Job& job) {
  const BurstPlan::Scene& s = plan.scenes[static_cast<std::size_t>(job.scene)];
  serve::JobRequest req;
  req.tenant = job.deadline_ms > 0.0 ? s.kind : "bulk";
  req.scene_text = s.text;
  req.steps = job.steps;
  req.n_threads = kWorkers;
  req.deadline_ms = job.deadline_ms;
  req.dt_fs = s.engine.dt_fs;
  req.cutoff = s.engine.cutoff;
  req.skin = s.engine.skin;
  return req;
}

}  // namespace

BurstPlan make_burst_plan(std::uint64_t seed) {
  BurstPlan plan;
  for (int k = 0; k < 3; ++k) {
    for (int v = 0; v < kVariantsPerKind; ++v) {
      workloads::BenchmarkSpec spec = workloads::make_benchmark(
          kKinds[k], stream_seed(seed, 100 + static_cast<std::uint64_t>(k * 10 + v)));
      BurstPlan::Scene s;
      s.kind = kKinds[k];
      s.text = serve::scene_text(spec.system);
      s.engine = spec.engine;
      s.n_atoms = spec.system.n_atoms();
      plan.scenes.push_back(std::move(s));
    }
  }
  std::uint64_t state = stream_seed(seed, 200);
  auto next = [&state] {
    state = stream_seed(state, 1);
    return state;
  };
  // Every variant gets the same share of jobs, so a burst's total work
  // averages over kVariantsPerKind generated scenes per kind rather than
  // riding on one seed's Al-1000 cascade.
  for (int b = 0; b < kBulkJobs; ++b) {
    plan.jobs.push_back({kBulkScene + b % kVariantsPerKind, kBulkSteps, 0.0});
  }
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < kSmallJobsPerKind; ++j) {
      const int scene = k * kVariantsPerKind + j % kVariantsPerKind;
      // Deadlines spread over the burst's expected span, so EDF order and
      // the hit fraction both depend on the seed.
      const double deadline = 1000.0 + static_cast<double>(next() % 5000);
      plan.jobs.push_back({scene, kSmallSteps, deadline});
    }
  }
  for (std::size_t i = plan.jobs.size() - 1; i > 0; --i) {
    std::swap(plan.jobs[i], plan.jobs[static_cast<std::size_t>(next() % (i + 1))]);
  }
  return plan;
}

md::EngineConfig job_engine_config(const BurstPlan::Scene& s) {
  md::EngineConfig cfg;
  cfg.n_threads = kWorkers;
  cfg.dt_fs = s.engine.dt_fs;
  cfg.cutoff = s.engine.cutoff;
  cfg.skin = s.engine.skin;
  return cfg;
}

BurstReference burst_reference(const BurstPlan& plan, bool corrupt_ref) {
  std::map<std::pair<int, int>, std::pair<double, double>> by_key;
  parallel::FixedThreadPool pool(pool_config(kWorkers));
  for (const BurstPlan::Job& job : plan.jobs) {
    const auto key = std::make_pair(job.scene, job.steps);
    if (by_key.count(key) != 0) continue;
    const BurstPlan::Scene& s = plan.scenes[static_cast<std::size_t>(job.scene)];
    std::istringstream is(s.text);
    md::Engine engine(md::load_scene(is), job_engine_config(s));
    engine.run_native(pool, job.steps);
    by_key[key] = {engine.potential_energy(), engine.kinetic_energy()};
  }
  pool.shutdown();
  BurstReference ref;
  for (const BurstPlan::Job& job : plan.jobs) {
    auto [pe, ke] = by_key.at({job.scene, job.steps});
    ref.pe.push_back(corrupt_ref ? corrupt(pe) : pe);
    ref.ke.push_back(ke);
  }
  return ref;
}

BurstResult run_burst(const BurstPlan& plan, const BurstReference& ref, Report& report,
                      Spans* spans) {
  const int n = static_cast<int>(plan.jobs.size());
  auto sched = std::make_unique<serve::BatchScheduler>(scheduler_config(n));
  std::vector<std::shared_ptr<serve::JobTicket>> tickets;
  std::vector<double> submit_at;
  tickets.reserve(static_cast<std::size_t>(n));

  const double t0 = now_s();
  for (const BurstPlan::Job& job : plan.jobs) {
    submit_at.push_back(now_s() - t0);
    tickets.push_back(sched->submit(job_request(plan, job)));
  }
  const double t_submitted = now_s();
  for (const auto& t : tickets) t->wait();
  const double t_waited = now_s();
  if (spans != nullptr) {
    spans->add("BatchScheduler::submit x" + std::to_string(n), t0, t_submitted);
    spans->add("JobTicket::wait (all)", t_submitted, t_waited);
  }

  BurstResult r;
  r.jobs = n;
  r.preemptions = sched->stats().preemptions;
  r.cache_hits = sched->scene_cache().hits();
  r.cache_misses = sched->scene_cache().misses();
  for (int i = 0; i < n; ++i) {
    const serve::JobTicket& t = *tickets[static_cast<std::size_t>(i)];
    const BurstPlan::Job& job = plan.jobs[static_cast<std::size_t>(i)];
    const double done_ms = (submit_at[static_cast<std::size_t>(i)] + t.latency_seconds()) * 1e3;
    r.makespan_s = std::max(r.makespan_s, done_ms / 1e3);
    r.atom_steps += static_cast<double>(plan.scenes[static_cast<std::size_t>(job.scene)].n_atoms) *
                    job.steps;
    const bool ok = t.status() == serve::JobStatus::Done &&
                    same_bits(t.potential_energy(), ref.pe[static_cast<std::size_t>(i)]) &&
                    same_bits(t.kinetic_energy(), ref.ke[static_cast<std::size_t>(i)]);
    report.check(ok, "serve job " + std::to_string(i) + " (" + serve::to_string(t.status()) +
                         ") energies vs dedicated-pool reference");
    if (job.deadline_ms > 0.0) {
      const double queue_ms = t.queue_seconds() * 1e3;
      r.small_latency_ms.push_back(done_ms);
      r.small_queue_ms.push_back(queue_ms);
      r.small_service_ms.push_back(t.latency_seconds() * 1e3 - queue_ms);
      r.small_deadline_hits += t.deadline_missed() ? 0 : 1;
    }
    if (spans != nullptr) {
      const double due = t0;
      const double start = t0 + submit_at[static_cast<std::size_t>(i)] + t.queue_seconds();
      const int lane = 1 + job.scene;
      spans->add("queued job " + std::to_string(i), due, start, lane);
      spans->add("job " + std::to_string(i), start, t0 + done_ms / 1e3, lane);
    }
  }
  sched->stop();
  return r;
}

void report_serve_layer(Report& r, const std::vector<BurstResult>& bursts,
                        double preempt_overhead_ms) {
  std::vector<double> queue, service;
  double preempt = 0, jobs = 0, hits = 0, loads = 0, dl_hits = 0, dl_jobs = 0;
  for (const BurstResult& b : bursts) {
    queue.insert(queue.end(), b.small_queue_ms.begin(), b.small_queue_ms.end());
    service.insert(service.end(), b.small_service_ms.begin(), b.small_service_ms.end());
    preempt += static_cast<double>(b.preemptions);
    jobs += b.jobs;
    hits += static_cast<double>(b.cache_hits);
    loads += static_cast<double>(b.cache_hits + b.cache_misses);
    dl_hits += b.small_deadline_hits;
    dl_jobs += static_cast<double>(b.small_latency_ms.size());
  }
  r.set("serve.queue_wait_ms_p50", quantile(queue, 0.5), "ms");
  r.set("serve.queue_wait_ms_p90", quantile(queue, 0.9), "ms");
  r.set("serve.service_ms_p50", quantile(service, 0.5), "ms");
  r.set("serve.preemptions_per_job", jobs > 0 ? preempt / jobs : 0.0, "count");
  r.set("serve.preempt_overhead_ms", preempt_overhead_ms, "ms");
  r.set("serve.cache_hit_ratio", loads > 0 ? hits / loads : 0.0, "ratio");
  r.set("serve.deadline_hit_frac", dl_jobs > 0 ? dl_hits / dl_jobs : 0.0, "ratio");
}

}  // namespace pb

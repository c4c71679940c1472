// The serve probe's traffic: one client thread submits a seeded burst of
// jobs, all due at t=0, to a deadline-mode BatchScheduler with preemption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "md/engine.hpp"
#include "util.hpp"

namespace pb {

struct BurstPlan {
  struct Scene {
    std::string kind;  // "salt", "nanocar", "Al-1000"
    std::string text;  // .mws scene, the scheduler's input and cache key
    md::EngineConfig engine;
    int n_atoms = 0;
  };
  struct Job {
    int scene = 0;
    int steps = 0;
    double deadline_ms = 0.0;  // 0 = bulk (no deadline)
  };
  std::vector<Scene> scenes;
  std::vector<Job> jobs;  // submission order
};

inline constexpr int kBulkJobs = 4;
inline constexpr int kBulkSteps = 300;
inline constexpr int kSmallJobsPerKind = 36;  // 108 small jobs: p90 has 10 beyond it
inline constexpr int kSmallSteps = 40;
inline constexpr int kPreemptSlice = 20;
inline constexpr int kDrivers = 2;
inline constexpr int kVariantsPerKind = 4;
inline constexpr int kBulkScene = 2 * kVariantsPerKind;  // Al-1000 variant 0

// Generates the burst's scenes and job list from `seed`.
BurstPlan make_burst_plan(std::uint64_t seed);

// The EngineConfig BatchScheduler::run_job builds for a job on scene `s`.
md::EngineConfig job_engine_config(const BurstPlan::Scene& s);

struct BurstResult {
  double makespan_s = 0.0;
  double atom_steps = 0.0;
  // Small (deadline) jobs only, ms from the burst's due time.
  std::vector<double> small_latency_ms;
  std::vector<double> small_queue_ms;
  std::vector<double> small_service_ms;
  int small_deadline_hits = 0;
  long long preemptions = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  int jobs = 0;
};

// Dedicated-pool reference energies (pe, ke) per distinct (scene, steps).
struct BurstReference {
  std::vector<double> pe;  // indexed like plan.jobs
  std::vector<double> ke;
};
BurstReference burst_reference(const BurstPlan& plan, bool corrupt_ref);

// Runs the burst on a fresh scheduler and checks every job against `ref`.
BurstResult run_burst(const BurstPlan& plan, const BurstReference& ref, Report& report,
                      Spans* spans);

// serve.* layer metrics from a set of bursts.
void report_serve_layer(Report& r, const std::vector<BurstResult>& bursts,
                        double preempt_overhead_ms);

}  // namespace pb

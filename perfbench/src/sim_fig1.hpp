// The sim_fig1 set: salt, nanocar and Al-1000 on the simulated Core i7 at
// 1-4 cores — 12 independent simulations, run kWorkers at a time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace pb {

inline constexpr int kSimWarmupSteps = 3;
inline constexpr int kSimSteps = 4;

struct SimRun {
  std::string bench;
  int cores = 0;
  double sim_ms_per_step = 0.0;  // simulated
  double l3_miss_rate = 0.0;     // simulated
  long long accesses = 0;        // L1 accesses in the measured steps
  double host_s = 0.0;           // host time for the whole simulation
  double host_measured_s = 0.0;  // host time for the measured steps
  double atom_steps = 0.0;       // simulated atom-steps (warm-up included)
};

// Runs the 12 simulations on `lanes` host threads; results in (bench, cores)
// order.  Each thread records a span per simulation when `spans` is set.
std::vector<SimRun> run_fig1_set(std::uint64_t seed, int lanes, Spans* spans);

// Generates the three systems, builds a 4-core machine and engine per
// benchmark and simulates one step each: the sim set-up cost.  Returns the
// generation part, seconds.
double sim_setup_once(std::uint64_t seed);

// True when two runs agree exactly on every simulated statistic.
bool same_simulation(const SimRun& a, const SimRun& b);

// sim.* layer metrics from one set (host time from all of `sets`).
void report_sim_layer(Report& r, const std::vector<std::vector<SimRun>>& sets);

}  // namespace pb

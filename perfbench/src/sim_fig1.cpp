#include "sim_fig1.hpp"

#include <atomic>
#include <cmath>
#include <thread>

#include "md/engine.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace pb {

namespace {

constexpr const char* kBenches[] = {"salt", "nanocar", "Al-1000"};
constexpr double kPaperSpeedup4[] = {3.63, 3.03, 1.42};  // Fig. 1, 4 cores

workloads::BenchmarkSpec make_spec(std::uint64_t seed, int b) {
  return workloads::make_benchmark(kBenches[b], stream_seed(seed, 300 + static_cast<std::uint64_t>(b)));
}

std::unique_ptr<sim::Machine> make_machine(int cores) {
  sim::MachineConfig mc;
  mc.spec = mwx::topo::core_i7_920();
  mc.n_threads = cores;
  return std::make_unique<sim::Machine>(mc);
}

SimRun simulate(std::uint64_t seed, int b, int cores) {
  const double t0 = now_s();
  workloads::BenchmarkSpec spec = make_spec(seed, b);
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = cores;
  const int n_atoms = spec.system.n_atoms();
  md::Engine engine(std::move(spec.system), cfg);
  auto machine = make_machine(cores);
  engine.run_simulated(*machine, kSimWarmupSteps);
  machine->reset_counters();
  const double sim0 = machine->now_seconds();
  const double t1 = now_s();
  engine.run_simulated(*machine, kSimSteps);
  const double t2 = now_s();

  SimRun r;
  r.bench = kBenches[b];
  r.cores = cores;
  r.sim_ms_per_step = (machine->now_seconds() - sim0) * 1e3 / kSimSteps;
  r.l3_miss_rate = machine->counters().l3.miss_rate();
  r.accesses = machine->counters().l1.accesses();
  r.host_s = t2 - t0;
  r.host_measured_s = t2 - t1;
  r.atom_steps = static_cast<double>(n_atoms) * (kSimWarmupSteps + kSimSteps);
  return r;
}

}  // namespace

std::vector<SimRun> run_fig1_set(std::uint64_t seed, int lanes, Spans* spans) {
  std::vector<SimRun> out(12);
  std::atomic<int> next{0};
  // Index order starts with salt, the longest simulations, so no lane is
  // left holding a long one at the end.
  auto worker = [&](int lane) {
    for (int i = next.fetch_add(1); i < 12; i = next.fetch_add(1)) {
      const int b = i / 4;
      const int cores = 1 + i % 4;
      const double t0 = now_s();
      out[static_cast<std::size_t>(i)] = simulate(seed, b, cores);
      if (spans != nullptr) {
        spans->add(std::string("Engine::run_simulated ") + kBenches[b] + " x" +
                       std::to_string(cores),
                   t0, now_s(), 10 + lane);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int l = 0; l < lanes; ++l) threads.emplace_back(worker, l);
  for (std::thread& t : threads) t.join();
  return out;
}

double sim_setup_once(std::uint64_t seed) {
  const double t0 = now_s();
  std::vector<workloads::BenchmarkSpec> specs;
  for (int b = 0; b < 3; ++b) specs.push_back(make_spec(seed, b));
  const double gen = now_s() - t0;
  for (workloads::BenchmarkSpec& spec : specs) {
    md::EngineConfig cfg = spec.engine;
    cfg.n_threads = 4;
    md::Engine engine(std::move(spec.system), cfg);
    auto machine = make_machine(4);
    engine.run_simulated(*machine, 1);
  }
  return gen;
}

bool same_simulation(const SimRun& a, const SimRun& b) {
  return same_bits(a.sim_ms_per_step, b.sim_ms_per_step) &&
         same_bits(a.l3_miss_rate, b.l3_miss_rate) && a.accesses == b.accesses;
}

void report_sim_layer(Report& r, const std::vector<std::vector<SimRun>>& sets) {
  const std::vector<SimRun>& set = sets.front();
  double accesses = 0.0;
  for (const SimRun& s : set) accesses += static_cast<double>(s.accesses);
  std::vector<double> ns_per_access;
  for (const auto& s_set : sets) {
    double host = 0.0;
    for (const SimRun& s : s_set) host += s.host_measured_s;
    ns_per_access.push_back(host * 1e9 / std::max(1.0, accesses));
  }
  r.set("sim.accesses_per_step", accesses / (12.0 * kSimSteps), "count");
  r.set("sim.host_ns_per_access", median(ns_per_access), "ns");
  double err = 0.0;
  for (int b = 0; b < 3; ++b) {
    const auto& one = set[static_cast<std::size_t>(b * 4)];
    for (int c = 0; c < 4; ++c) {
      const auto& s = set[static_cast<std::size_t>(b * 4 + c)];
      r.set("sim.simulated_ms_per_step." + s.bench + "." + std::to_string(s.cores),
            s.sim_ms_per_step, "ms");
    }
    const auto& four = set[static_cast<std::size_t>(b * 4 + 3)];
    r.set("sim.l3_miss_rate." + four.bench, four.l3_miss_rate, "ratio");
    const double speedup = one.sim_ms_per_step / four.sim_ms_per_step;
    err += std::abs(speedup - kPaperSpeedup4[b]) / kPaperSpeedup4[b];
  }
  r.set("sim.fig1_speedup_err", err / 3.0, "ratio");
}

}  // namespace pb

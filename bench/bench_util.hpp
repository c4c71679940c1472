// Shared plumbing for the reproduction benches: runs a Table I benchmark on
// a simulated machine configuration and reports timing/counter summaries,
// plus a machine-readable JSON emitter for CI/plot consumption.
#pragma once

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "md/engine.hpp"
#include "perf/pmu.hpp"
#include "sim/machine.hpp"
#include "topo/machine_spec.hpp"
#include "workloads/workloads.hpp"

namespace mwx::bench {

// Collects named metric groups and writes them as BENCH_<name>.json in the
// working directory — so runs can be diffed or plotted without scraping the
// human-readable tables.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string name) : name_(std::move(name)) {}

  // Counter provider behind the emitted numbers: "sim" (machine simulator,
  // the default for the reproduction benches), "perf_event"/"fallback"
  // (native PMU accumulator) or "mixed" when a bench joins backends.
  void set_provider(std::string provider) { provider_ = std::move(provider); }

  void metric(const std::string& group, const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    group_of(group).emplace_back(key, os.str());
  }

  void note(const std::string& group, const std::string& key, const std::string& text) {
    std::string quoted(1, '"');
    quoted += escaped(text);
    quoted += '"';
    group_of(group).emplace_back(key, std::move(quoted));
  }

  // Writes BENCH_<name>.json; returns the path written.
  std::string write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << escaped(name_) << "\",\n"
        << "  \"schema_version\": " << perf::kArtifactSchemaVersion << ",\n"
        << "  \"git_sha\": \"" << escaped(perf::build_git_sha()) << "\",\n"
        << "  \"provider\": \"" << escaped(provider_) << "\"";
    for (const auto& [group, entries] : groups_) {
      out << ",\n  \"" << escaped(group) << "\": {";
      bool first = true;
      for (const auto& [key, rendered] : entries) {
        out << (first ? "\n" : ",\n") << "    \"" << escaped(key) << "\": " << rendered;
        first = false;
      }
      out << "\n  }";
    }
    out << "\n}\n";
    return path;
  }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  Entries& group_of(const std::string& group) {
    for (auto& [g, entries] : groups_) {
      if (g == group) return entries;
    }
    groups_.emplace_back(group, Entries{});
    return groups_.back().second;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::string provider_ = "sim";
  std::vector<std::pair<std::string, Entries>> groups_;
};

struct RunOptions {
  int n_threads = 1;
  int steps = 100;
  int warmup_steps = 5;
  topo::MachineSpec spec = topo::core_i7_920();
  std::vector<topo::CpuSet> pin_masks;  // empty = OS scheduled
  sim::SchedulerParams sched;           // defaults: mild noise, migratory
  md::Layout layout = md::Layout::JavaObjects;
  md::TemporariesMode temporaries = md::TemporariesMode::JavaStyle;
  sim::Assignment assignment = sim::Assignment::Static;
  int chunks_per_thread = 1;
  int monitor_updates_per_task = 0;
  int instr_calls_per_task = 0;
  bool instrumentation_agent = false;
  bool record_residency = false;
  bool reorder_on_rebuild = false;
  int reorder_interval = 0;  // Morton pass cadence in rebuilds; 0 = never
  bool tiled_lj = true;
  std::uint64_t workload_seed = 7;
};

struct RunResult {
  double seconds = 0.0;            // simulated seconds for the measured steps
  double seconds_per_step = 0.0;
  double updates_per_second = 0.0; // simulation refresh rate
  sim::MachineCounters counters;   // measured-step counters
  long long rebuilds = 0;
  double imbalance = 1.0;          // max/mean of per-thread busy time
  std::vector<sim::ResidencySegment> residency;
};

// Runs `spec_name` (a Table I benchmark) under the given options on the
// machine simulator.
inline RunResult run_simulated(const std::string& spec_name, const RunOptions& opt) {
  workloads::BenchmarkSpec spec = workloads::make_benchmark(spec_name, opt.workload_seed);
  md::EngineConfig cfg = spec.engine;
  cfg.n_threads = opt.n_threads;
  cfg.chunks_per_thread = opt.chunks_per_thread;
  cfg.assignment = opt.assignment;
  cfg.heap.layout = opt.layout;
  cfg.temporaries = opt.temporaries;
  cfg.monitor_updates_per_task = opt.monitor_updates_per_task;
  cfg.instr_calls_per_task = opt.instr_calls_per_task;
  cfg.reorder_on_rebuild = opt.reorder_on_rebuild;
  cfg.reorder_interval = opt.reorder_interval;
  cfg.tiled_lj = opt.tiled_lj;
  md::Engine engine(std::move(spec.system), cfg);

  sim::MachineConfig mc;
  mc.spec = opt.spec;
  mc.sched = opt.sched;
  mc.n_threads = opt.n_threads;
  mc.pin_masks = opt.pin_masks;
  mc.record_residency = opt.record_residency;
  mc.instrumentation_agent = opt.instrumentation_agent;
  sim::Machine machine(mc);

  engine.run_simulated(machine, opt.warmup_steps);
  machine.reset_counters();
  const double t0 = machine.now_seconds();
  const long long rebuilds0 = engine.rebuild_count();
  engine.run_simulated(machine, opt.steps);

  RunResult r;
  r.seconds = machine.now_seconds() - t0;
  r.seconds_per_step = r.seconds / opt.steps;
  r.updates_per_second = r.seconds_per_step > 0 ? 1.0 / r.seconds_per_step : 0.0;
  r.counters = machine.counters();
  r.rebuilds = engine.rebuild_count() - rebuilds0;
  const auto busy = machine.event_log().busy_per_thread();
  if (!busy.empty()) {
    double mx = 0.0, sum = 0.0;
    for (double b : busy) {
      mx = std::max(mx, b);
      sum += b;
    }
    r.imbalance = sum > 0 ? mx / (sum / static_cast<double>(busy.size())) : 1.0;
  }
  r.residency = machine.residency();
  return r;
}

}  // namespace mwx::bench

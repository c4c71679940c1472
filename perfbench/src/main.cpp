// perfbench_native — one run of one benchmark workload.
//
//   perfbench_native --workload <gas_16k|droplet_100k|sim_fig1>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--corrupt-ref] [--out <dir>]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs print
// the per-layer metrics and write a chrome trace.  The last stdout line is
// the result object {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the host context.  --corrupt-ref perturbs every
// reference value, so every output check must fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "md/scene_io.hpp"
#include "perf/native_pmu.hpp"
#include "serve_burst.hpp"
#include "sim_fig1.hpp"
#include "util.hpp"
#include "workloads/workloads.hpp"

namespace pb {
namespace {

// Set-up is repeated at least this often and for at least this long; its
// median is setup_s.  gas_16k sets up in ~65 ms, so 5 reps alone left its
// setup_s spread at 0.27 over ten seeds.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupMinSeconds = 2.0;

bool more_setup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kSetupReps || total < kSetupMinSeconds;
}

const char* const kEndToEnd[] = {"setup_s", "atom_steps_per_s", "op_ms_p50", "op_ms_p90",
                                 "peak_rss_mb"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool corrupt_ref = false;
  std::string out = ".bench_out";
};

// Everything one run shares across its helpers.
struct Run {
  Args args;
  Report report;
  Spans spans;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  // Last traced engine op, for the chrome trace.
  std::optional<perf::TraceSnapshot> snapshot;
  double snapshot_epoch = 0.0;

  Spans* sp() { return args.trace ? &spans : nullptr; }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- Generated inputs ---------------------------------------------------------

md::EngineConfig native_config() {
  md::EngineConfig cfg;
  cfg.n_threads = kWorkers;
  cfg.chunks_per_thread = 4;
  cfg.assignment = sim::Assignment::WorkStealing;
  return cfg;
}

NativeCase make_gas(std::uint64_t seed) {
  md::EngineConfig cfg = native_config();
  cfg.dt_fs = 1.0;
  return {"gas_16k",
          workloads::make_lj_coulomb_gas(16384, 0.008, 300.0, 0.25, stream_seed(seed, 1)), cfg,
          20, false};
}

NativeCase make_droplet(std::uint64_t seed) {
  md::EngineConfig cfg = native_config();
  cfg.reorder_interval = 1;
  // A thin skin so the vapor shell triggers several rebuilds (each with its
  // Morton pass) inside every 25-step op.
  cfg.skin = 0.3;
  return {"droplet_100k", workloads::make_droplet(100000, 110.0, stream_seed(seed, 2)), cfg, 25,
          true};
}

// The Table I Al-1000 scene as a native op: the md/parallel probe of the
// sim_fig1 workload (the serve probe's bulk job, undivided).
NativeCase make_al1000_probe(std::uint64_t seed) {
  const BurstPlan plan = make_burst_plan(seed);
  const BurstPlan::Scene& s = plan.scenes[kBulkScene];
  std::istringstream is(s.text);
  return {"Al-1000", md::load_scene(is), job_engine_config(s), kBulkSteps, false};
}

// --- Shared measurement loops -------------------------------------------------

struct NativeLoop {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  TraceAgg agg;
  long long traced_steps = 0;
  long long traced_rebuilds = 0;
  long long traced_steals = 0;
};

// Fixed-work ops for `seconds` (at least 3), each checked against `ref`.
// With tracing on, every other op carries a TraceRing, so traced and
// untraced ops interleave under the same host conditions.
NativeLoop native_loop(Run& run, const NativeCase& c, parallel::FixedThreadPool& pool,
                       const OpResult& ref, double seconds) {
  NativeLoop loop;
  run_op(c, pool, nullptr, nullptr);  // warm-up: page in buffers, spin up workers
  const double end = now_s() + seconds;
  for (int i = 0; i < 3 || now_s() < end; ++i) {
    const bool traced = run.args.trace && i % 2 == 1;
    std::optional<perf::TraceRing> ring;
    if (traced) ring.emplace(std::max(pool.n_threads(), c.cfg.n_threads) + 1, std::size_t{1} << 16);
    const double epoch = now_s();
    const OpResult op = run_op(c, pool, traced ? &*ring : nullptr, traced ? run.sp() : nullptr);
    run.report.check(same_bits(op.energy, ref.energy) &&
                         (!c.checkpoint || op.ckpt_hash == ref.ckpt_hash),
                     c.name + " op " + std::to_string(i) + " vs run_inline reference");
    if (traced) {
      run.snapshot = ring->snapshot();
      run.snapshot_epoch = epoch;
      loop.agg.add(*run.snapshot, ring->external_lane());
      loop.traced_s.push_back(op.seconds);
      loop.traced_steps += c.steps;
      loop.traced_rebuilds += op.rebuilds;
      loop.traced_steals += op.steals;
    } else {
      loop.untraced_s.push_back(op.seconds);
    }
  }
  return loop;
}

OpResult checked_reference(const Run& run, const NativeCase& c) {
  OpResult ref = run_reference(c);
  if (run.args.corrupt_ref) {
    ref.energy = corrupt(ref.energy);
    ref.ckpt_hash ^= 1;
  }
  return ref;
}

// Checkpoint round trip after one op: the restored engine's next step must
// match the original's.  A Morton-reordered engine restores into creation
// order (restore_continuation cannot replay the reorder schedule), which
// changes the force summation order, so that case compares to 1e-9
// relative; otherwise the energies must be bitwise equal.
void roundtrip_check(Run& run, const NativeCase& c, parallel::FixedThreadPool& pool,
                     bool pooled_save, std::optional<md::Engine>* engine,
                     CheckpointProbe* probe) {
  engine->emplace(c.start, c.cfg);
  (*engine)->run_native(pool, c.steps);
  std::optional<md::Engine> restored;
  *probe = probe_checkpoint(**engine, pooled_save ? &pool : nullptr, &restored, run.sp());
  (*engine)->run_native(pool, 1);
  restored->run_native(pool, 1);
  double expect = (*engine)->total_energy();
  if (run.args.corrupt_ref) expect = corrupt(expect);
  const double got = restored->total_energy();
  const bool ok = c.cfg.reorder_interval == 0
                      ? same_bits(got, expect)
                      : std::abs(got - expect) <= 1e-9 * std::abs(expect);
  run.report.check(ok, c.name + " checkpoint round trip (next-step energy)");
}

void report_native_layer(Run& run, const NativeLoop& loop) {
  report_trace(run.report, loop.agg, loop.traced_steps, loop.traced_rebuilds,
               loop.traced_steals, kWorkers);
  run.report.set("trace.overhead_frac",
                 median(loop.traced_s) / median(loop.untraced_s) - 1.0, "ratio");
}

// The md-layer probes every traced run reports: kernel ns per term on the
// workload's own systems (salt stands in for Coulomb and nanocar for bonds
// where the workload has none), the checkpoint probe, and 1-vs-3 scaling.
void report_md_probes(Run& run, const NativeCase& c, const md::Engine& after_op,
                      const CheckpointProbe& ckpt, parallel::FixedThreadPool& pool) {
  const std::uint64_t seed = run.args.seed;
  {
    ScopedSpan s(run.sp(), "kernel probes");
    run.report.set("md.kernel.lj_ns_per_pair", lj_ns_per_pair(after_op), "ns");
    const md::MolecularSystem salt = workloads::make_salt(stream_seed(seed, 4)).system;
    run.report.set("md.kernel.coulomb_ns_per_pair",
                   coulomb_ns_per_pair(after_op.system().n_charged() > 0 ? after_op.system()
                                                                          : salt),
                   "ns");
    run.report.set("md.kernel.bond_ns_per_term",
                   bond_ns_per_term(workloads::make_nanocar(stream_seed(seed, 5)).system),
                   "ns");
  }
  report_checkpoint(run.report, ckpt);
  {
    ScopedSpan s(run.sp(), "rebuild pipeline probes");
    probe_rebuild_phases(run.report, after_op, pool,
                         run.report.metrics().at("md.rebuilds_per_step").value);
  }
  ScopedSpan s(run.sp(), "scaling probe 1v3");
  probe_scaling(run.report, c, pool, 2, run.sp());
}

// Serve probe: one burst of the serve plan, plus the per-preemption cost on
// the bulk Al-1000 scene (serial save + restore, as the scheduler does it).
void report_serve_probe(Run& run) {
  const BurstPlan plan = make_burst_plan(run.args.seed);
  std::vector<BurstResult> bursts;
  {
    ScopedSpan s(run.sp(), "serve probe burst");
    const BurstReference ref = burst_reference(plan, run.args.corrupt_ref);
    bursts.push_back(run_burst(plan, ref, run.report, run.sp()));
  }
  NativeCase al = make_al1000_probe(run.args.seed);
  al.steps = kPreemptSlice;
  md::Engine engine(al.start, al.cfg);
  engine.run_inline(al.steps);
  std::optional<md::Engine> restored;
  const CheckpointProbe p = probe_checkpoint(engine, nullptr, &restored, run.sp());
  report_serve_layer(run.report, bursts, p.save_ms + p.restore_ms);
}

void report_sim_probe(Run& run, std::vector<std::vector<SimRun>> sets) {
  if (sets.empty()) {
    ScopedSpan s(run.sp(), "sim probe fig1 set");
    sets.push_back(run_fig1_set(run.args.seed, kWorkers, run.sp()));
  }
  report_sim_layer(run.report, sets);
}

// Throughput is all timed work over all timed seconds, not a median of
// per-op rates: when host contention covers part of a run, the total moves
// in proportion while a median jumps between the quiet and the loaded mode.
void report_e2e(Run& run, double atom_steps, double seconds, const std::vector<double>& op_ms) {
  run.report.set("setup_s", median(run.setup_s), "s");
  run.report.set("atom_steps_per_s", atom_steps / seconds, "atom_steps/s");
  run.report.set("op_ms_p50", quantile(op_ms, 0.5), "ms");
  run.report.set("op_ms_p90", quantile(op_ms, 0.9), "ms");
  run.report.set("workloads.gen_s", median(run.gen_s), "s");
}

// --- Workloads ----------------------------------------------------------------

void run_native_workload(Run& run, NativeCase (*make)(std::uint64_t)) {
  std::optional<NativeCase> made;
  while (more_setup(run.setup_s)) {
    const double t0 = now_s();
    made.emplace(make(run.args.seed));
    const double t1 = now_s();
    parallel::FixedThreadPool pool(pool_config(kWorkers));
    md::Engine engine(made->start, made->cfg);
    engine.run_native(pool, 1);
    run.setup_s.push_back(now_s() - t0);
    run.gen_s.push_back(t1 - t0);
    pool.shutdown();
  }
  const NativeCase& c = *made;
  const OpResult ref = checked_reference(run, c);
  parallel::FixedThreadPool pool(pool_config(kWorkers));
  const NativeLoop loop = native_loop(run, c, pool, ref, run.args.seconds);
  CheckpointProbe ckpt;
  std::optional<md::Engine> after;
  roundtrip_check(run, c, pool, true, &after, &ckpt);

  std::vector<double> op_ms;
  double seconds = 0.0;
  for (double s : loop.untraced_s) {
    op_ms.push_back(s * 1e3);
    seconds += s;
  }
  const double atom_steps = static_cast<double>(c.start.n_atoms()) * c.steps;
  report_e2e(run, atom_steps * static_cast<double>(op_ms.size()), seconds, op_ms);
  if (run.args.trace) {
    report_native_layer(run, loop);
    report_md_probes(run, c, *after, ckpt, pool);
    report_serve_probe(run);
    report_sim_probe(run, {});
  }
  pool.shutdown();
}

// sim_fig1 has no native engine op of its own; its md/parallel layers are
// read from the Al-1000 bulk scene run natively.
void run_al1000_layer_probe(Run& run) {
  const NativeCase c = make_al1000_probe(run.args.seed);
  const OpResult ref = checked_reference(run, c);
  parallel::FixedThreadPool pool(pool_config(kWorkers));
  const NativeLoop loop = native_loop(run, c, pool, ref, std::max(2.0, run.args.seconds / 4));
  CheckpointProbe ckpt;
  std::optional<md::Engine> after;
  roundtrip_check(run, c, pool, false, &after, &ckpt);
  report_native_layer(run, loop);
  report_md_probes(run, c, *after, ckpt, pool);
  pool.shutdown();
}

void run_sim_fig1(Run& run) {
  while (more_setup(run.setup_s)) {
    const double t0 = now_s();
    run.gen_s.push_back(sim_setup_once(run.args.seed));
    run.setup_s.push_back(now_s() - t0);
  }
  std::vector<std::vector<SimRun>> sets;
  std::vector<SimRun> ref;
  std::vector<double> per_sim_ms;
  double atom_steps = 0.0, seconds = 0.0;
  const double end = now_s() + run.args.seconds;
  while (sets.size() < 2 || now_s() < end) {
    const double t0 = now_s();
    sets.push_back(run_fig1_set(run.args.seed, kWorkers, run.sp()));
    const double wall = now_s() - t0;
    const std::vector<SimRun>& set = sets.back();
    if (ref.empty()) {
      ref = set;
      if (run.args.corrupt_ref) {
        for (SimRun& s : ref) s.sim_ms_per_step = corrupt(s.sim_ms_per_step);
      }
    }
    seconds += wall;
    for (std::size_t i = 0; i < set.size(); ++i) {
      run.report.check(same_simulation(set[i], ref[i]),
                       "sim " + set[i].bench + " x" + std::to_string(set[i].cores) +
                           " statistics vs first set");
      atom_steps += set[i].atom_steps;
      per_sim_ms.push_back(set[i].host_s * 1e3);
    }
  }
  report_e2e(run, atom_steps, seconds, per_sim_ms);
  if (run.args.trace) {
    report_sim_probe(run, sets);
    run_al1000_layer_probe(run);
    report_serve_probe(run);
  }
}

// --- Output -------------------------------------------------------------------

void write_chrome_trace(const Run& run, const std::string& path) {
  std::ofstream out(path);
  std::vector<Spans::Span> spans = run.spans.all();
  double base = run.snapshot ? run.snapshot_epoch : 1e300;
  for (const auto& s : spans) base = std::min(base, s.t0);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto event = [&](const std::string& name, int pid, int tid, double t0, double t1) {
    out << (first ? "" : ",") << "\n{\"name\":" << quoted(name) << ",\"ph\":\"X\",\"pid\":"
        << pid << ",\"tid\":" << tid << ",\"ts\":" << fmt((t0 - base) * 1e6)
        << ",\"dur\":" << fmt((t1 - t0) * 1e6) << "}";
    first = false;
  };
  if (run.snapshot) {
    for (const perf::MergedTraceEvent& m : run.snapshot->events) {
      const char* phase = md::phase_tag_name(m.event.tag);
      const std::string name = std::string(perf::trace_kind_name(m.event.kind)) + " " +
                               (phase != nullptr ? phase : std::to_string(m.event.tag));
      event(name, 1, m.lane, run.snapshot_epoch + m.event.begin,
            run.snapshot_epoch + m.event.end);
    }
  }
  for (const auto& s : spans) event(s.name, 2, s.tid, s.t0, s.t1);
  out << "\n]}\n";
}

int run_main(int argc, char** argv) {
  Run run;
  Args& a = run.args;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--corrupt-ref") a.corrupt_ref = true;
    else if (k == "--out") a.out = value();
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");

  const double calib_start = calib_ms();
  const auto [steal0, total0] = cpu_steal_total();
  if (a.workload == "gas_16k") run_native_workload(run, make_gas);
  else if (a.workload == "droplet_100k") run_native_workload(run, make_droplet);
  else if (a.workload == "sim_fig1") run_sim_fig1(run);
  else throw std::runtime_error("unknown workload " + a.workload);
  run.report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const auto [steal1, total1] = cpu_steal_total();
  const double calib_end = calib_ms();

  perf::PmuAccumulator pmu(1);
  pmu.task_begin();
  pmu.task_end(0, 0);
  std::ostringstream host;
  host << "{\"host\":{\"calib_ms_start\":" << fmt(calib_start)
       << ",\"calib_ms_end\":" << fmt(calib_end) << ",\"steal_frac\":"
       << fmt(total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"counter_provider\":" << quoted(pmu.provider()) << "}}";

  const bool correct = run.report.failed() == 0;
  std::ostringstream result;
  result << "{\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << run.report.attempted() << ",\"failed\":" << run.report.failed()
         << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : run.report.metrics()) {
    const bool e2e = std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) !=
                     std::end(kEndToEnd);
    if (e2e == a.trace) continue;
    result << (first ? "" : ",") << quoted(name) << ":{\"value\":" << fmt(m.value)
           << ",\"unit\":" << quoted(m.unit) << "}";
    first = false;
  }
  result << "}}";

  std::filesystem::create_directories(a.out);
  const std::string stem = a.out + "/" + a.workload + "_seed" + std::to_string(a.seed);
  std::ofstream(stem + (a.trace ? "_trace1.json" : "_trace0.json"))
      << "{\"run\":" << result.str() << ",\"context\":" << host.str() << "}\n";
  if (a.trace) write_chrome_trace(run, stem + "_chrome.json");

  std::cout << host.str() << "\n" << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_native: " << e.what() << "\n";
    return 2;
  }
}

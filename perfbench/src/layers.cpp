#include "layers.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "md/kernels.hpp"
#include "md/morton.hpp"
#include "md/scene_io.hpp"
#include "serve/scene_cache.hpp"

namespace pb {

namespace {

// Repeats `call` until at least `min_s` seconds and 3 calls have elapsed;
// returns the median seconds per call.
template <typename F>
double median_call_seconds(F&& call, double min_s = 0.2) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 3 || now_s() - start < min_s) {
    const double t0 = now_s();
    call();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

}  // namespace

parallel::ThreadPoolConfig pool_config(int n_threads) {
  parallel::ThreadPoolConfig pc;
  pc.n_threads = n_threads;
  pc.queue_mode = parallel::QueueMode::WorkStealing;
  return pc;
}

OpResult run_op(const NativeCase& c, parallel::FixedThreadPool& pool, perf::TraceRing* trace,
                Spans* spans) {
  md::Engine engine(c.start, c.cfg);
  engine.attach_trace(trace);
  OpResult r;
  const long long steals0 = pool.steals();
  const double t0 = now_s();
  engine.run_native(pool, c.steps);
  const double t1 = now_s();
  if (c.checkpoint) {
    const std::string text = serve::checkpoint_text(engine, &pool);
    r.ckpt_seconds = now_s() - t1;
    r.ckpt_hash = serve::SceneCache::content_hash(text);
  }
  r.seconds = now_s() - t0;
  if (spans != nullptr) {
    spans->add("Engine::run_native", t0, t1);
    if (c.checkpoint) spans->add("checkpoint_text", t1, t1 + r.ckpt_seconds);
  }
  r.energy = engine.total_energy();
  r.rebuilds = engine.rebuild_count();
  r.steals = pool.steals() - steals0;
  return r;
}

OpResult run_reference(const NativeCase& c) {
  md::Engine engine(c.start, c.cfg);
  engine.run_inline(c.steps);
  OpResult r;
  r.energy = engine.total_energy();
  if (c.checkpoint) {
    const std::string text = serve::checkpoint_text(engine);
    r.ckpt_hash = serve::SceneCache::content_hash(text);
  }
  return r;
}

void TraceAgg::add(const perf::TraceSnapshot& snap, int external_lane) {
  std::vector<perf::TraceEvent> phases;
  std::vector<perf::MergedTraceEvent> tasks;
  for (const perf::MergedTraceEvent& m : snap.events) {
    if (m.event.kind == perf::TraceKind::Phase && m.lane == external_lane) {
      phases.push_back(m.event);
    } else if (m.event.kind == perf::TraceKind::Task && m.lane != external_lane) {
      tasks.push_back(m);
    }
  }
  std::sort(phases.begin(), phases.end(), [](const auto& a, const auto& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
  });
  std::sort(tasks.begin(), tasks.end(),
            [](const auto& a, const auto& b) { return a.event.begin < b.event.begin; });

  // Self time: each bracket minus the brackets directly nested in it.
  std::vector<double> self(phases.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const perf::TraceEvent& p = phases[i];
    self[i] = p.end - p.begin;
    while (!open.empty() && phases[open.back()].end <= p.begin) open.pop_back();
    if (!open.empty() && p.end <= phases[open.back()].end) {
      self[open.back()] -= self[i];
    } else {
      phase_wall_s += p.end - p.begin;  // top-level bracket
    }
    open.push_back(i);
  }

  // Overhead: bracket wall minus the busiest worker's task time inside it —
  // dispatch, barrier and idle time on the phase's critical path.
  std::map<int, double> lane_busy;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const perf::TraceEvent& p = phases[i];
    if (p.tag > 0 && p.tag < md::kNumPhaseTags) self_s[static_cast<std::size_t>(p.tag)] += self[i];
    ++n_phases;
    lane_busy.clear();
    auto it = std::lower_bound(
        tasks.begin(), tasks.end(), p.begin,
        [](const perf::MergedTraceEvent& t, double b) { return t.event.begin < b; });
    for (; it != tasks.end() && it->event.begin <= p.end; ++it) {
      if (it->event.tag != p.tag) continue;
      const double d = it->event.end - it->event.begin;
      lane_busy[it->lane] += d;
      task_s += d;
    }
    double busiest = 0.0;
    for (const auto& [lane, d] : lane_busy) busiest = std::max(busiest, d);
    if (!lane_busy.empty()) overhead_s += std::max(0.0, (p.end - p.begin) - busiest);
  }
}

void report_trace(Report& r, const TraceAgg& agg, long long steps, long long rebuilds,
                  long long steals, int workers) {
  const double per_step = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  for (int t = 1; t < md::kNumPhaseTags; ++t) {
    r.set(std::string("md.phase.") + md::kPhaseTagNames[t] + ".ms_per_step",
          agg.self_s[static_cast<std::size_t>(t)] * 1e3 * per_step, "ms");
  }
  r.set("md.rebuilds_per_step", static_cast<double>(rebuilds) * per_step, "count");
  r.set("parallel.busy_frac",
        agg.phase_wall_s > 0 ? agg.task_s / (agg.phase_wall_s * workers) : 0.0, "ratio");
  r.set("parallel.steals_per_step", static_cast<double>(steals) * per_step, "count");
  r.set("parallel.phase_overhead_us",
        agg.n_phases > 0 ? agg.overhead_s * 1e6 / static_cast<double>(agg.n_phases) : 0.0,
        "us");
}

void probe_rebuild_phases(Report& r, const md::Engine& e, parallel::FixedThreadPool& pool,
                          double rebuilds_per_step) {
  const md::MolecularSystem& sys = e.system();
  const md::NeighborList& nl = e.neighbor_list();
  const int chunks = e.n_slots();
  md::CellGrid grid(sys.box().lo, sys.box().hi, nl.reach());
  const double bin_s = median_call_seconds([&] { grid.bin(sys.positions(), &pool, chunks); });
  md::NeighborList rows(sys.n_atoms(), nl.cutoff(), nl.skin());
  rows.begin_rebuild(sys.positions());
  for (int i = 0; i < sys.n_atoms(); ++i) rows.set_count(i, static_cast<int>(nl.end(i) - nl.begin(i)));
  const double prefix_s = median_call_seconds([&] { rows.finalize_offsets(&pool, chunks); });
  const int every = e.config().reorder_interval;
  const double morton_s =
      every > 0 ? median_call_seconds([&] {
        (void)md::morton_order(sys.positions(), sys.box().lo, sys.box().hi, nl.reach(), &pool,
                               chunks);
      })
                : 0.0;
  r.set("md.phase.bin.ms_per_step", bin_s * 1e3 * rebuilds_per_step, "ms");
  r.set("md.phase.nbr-prefix.ms_per_step", prefix_s * 1e3 * rebuilds_per_step, "ms");
  r.set("md.phase.morton-sort.ms_per_step",
        every > 0 ? morton_s * 1e3 * rebuilds_per_step / every : 0.0, "ms");
}

void probe_scaling(Report& r, const NativeCase& c, parallel::FixedThreadPool& pool, int pairs,
                   Spans* spans) {
  parallel::FixedThreadPool serial(pool_config(1));
  const int lanes = std::max(pool.n_threads(), c.cfg.n_threads) + 1;
  std::vector<double> wall1, wallN, task1, taskN;
  for (int p = 0; p < pairs; ++p) {
    for (int side = 0; side < 2; ++side) {
      // Alternate which side runs first so host drift cancels.
      const bool one = (side == 0) == (p % 2 == 0);
      perf::TraceRing ring(lanes, std::size_t{1} << 16);
      const OpResult op = run_op(c, one ? serial : pool, &ring, spans);
      TraceAgg agg;
      agg.add(ring.snapshot(), ring.external_lane());
      (one ? wall1 : wallN).push_back(op.seconds);
      (one ? task1 : taskN).push_back(agg.task_s);
    }
  }
  serial.shutdown();
  const std::string nv1 = std::to_string(pool.n_threads()) + "v1";
  r.set("parallel.speedup_" + nv1, median(wall1) / median(wallN), "ratio");
  r.set("parallel.work_inflation_" + nv1, median(taskN) / median(task1), "ratio");
}

double lj_ns_per_pair(const md::Engine& e) {
  const md::MolecularSystem& sys = e.system();
  md::NeighborList nlist = e.neighbor_list();
  md::CellGrid grid(sys.box().lo, sys.box().hi, nlist.reach());
  const md::LjTable lj(sys, e.config().cutoff);
  md::ForceBuffers buf(1, sys.n_atoms());
  const md::CostTable costs;
  md::NullMem mem;
  const double pairs = static_cast<double>(std::max<std::size_t>(1, nlist.total_entries()));
  const double s = median_call_seconds([&] {
    md::fused_neighbors_lj_chunk(sys, grid, nlist, lj, costs, /*rebuild=*/false, buf, 0, 0,
                                 sys.n_atoms(), 1, mem, /*tiled=*/true);
    buf.drain_pe();
  });
  return s * 1e9 / pairs;
}

double coulomb_ns_per_pair(const md::MolecularSystem& sys) {
  md::ForceBuffers buf(1, sys.n_atoms());
  const md::CostTable costs;
  md::NullMem mem;
  md::PackedCharges packed;
  packed.pack(sys);
  const double nc = sys.n_charged();
  const double s = median_call_seconds([&] {
    md::coulomb_chunk(sys, costs, buf, 0, 0, sys.n_charged(), 1, mem, /*tiled=*/true, &packed);
    buf.drain_pe();
  });
  return s * 1e9 / std::max(1.0, nc * (nc - 1) / 2);
}

double bond_ns_per_term(const md::MolecularSystem& sys) {
  md::ForceBuffers buf(1, sys.n_atoms());
  const md::CostTable costs;
  md::NullMem mem;
  const int nr = static_cast<int>(sys.radial_bonds().size());
  const int na = static_cast<int>(sys.angular_bonds().size());
  const int nt = static_cast<int>(sys.torsion_bonds().size());
  const double s = median_call_seconds([&] {
    md::radial_bond_chunk(sys, costs, buf, 0, 0, nr, mem);
    md::angular_bond_chunk(sys, costs, buf, 0, 0, na, mem);
    md::torsion_bond_chunk(sys, costs, buf, 0, 0, nt, mem);
    buf.drain_pe();
  });
  return s * 1e9 / std::max(1, nr + na + nt);
}

CheckpointProbe probe_checkpoint(const md::Engine& e, parallel::FixedThreadPool* pool,
                                 std::optional<md::Engine>* restored, Spans* spans) {
  CheckpointProbe p;
  const double t0 = now_s();
  const std::string text = serve::checkpoint_text(e, pool);
  const double t1 = now_s();
  std::istringstream is(text);
  std::vector<mwx::Vec3> refs;
  md::MolecularSystem sys = md::load_scene(is, &refs);
  md::EngineConfig cfg = e.config();
  cfg.reorder_interval = 0;  // restore_continuation cannot replay a Morton schedule
  restored->emplace(std::move(sys), cfg);
  (*restored)->restore_continuation(refs);
  const double t2 = now_s();
  if (spans != nullptr) {
    spans->add("checkpoint_text", t0, t1);
    spans->add("load_scene+restore_continuation", t1, t2);
  }
  p.save_ms = (t1 - t0) * 1e3;
  p.bytes = static_cast<double>(text.size());
  p.restore_ms = (t2 - t1) * 1e3;
  return p;
}

void report_checkpoint(Report& r, const CheckpointProbe& p) {
  r.set("md.checkpoint.save_ms", p.save_ms, "ms");
  r.set("md.checkpoint.bytes", p.bytes, "bytes");
  r.set("md.checkpoint.restore_ms", p.restore_ms, "ms");
}

}  // namespace pb

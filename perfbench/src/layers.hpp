// Layer probes: fixed-work native ops, TraceRing phase analysis, direct
// kernel timings and checkpoint round trips.  Everything here times calls
// into the program's public functions from outside; nothing is traced
// inside src/ beyond what Engine::attach_trace already records.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "md/cost_table.hpp"
#include "md/engine.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/trace_ring.hpp"
#include "util.hpp"

namespace pb {

// Worker threads per workload: half of the 4-vCPU host.  With 3, two
// competing busy threads stretched gas_16k ops by 36% and doubled the
// run-to-run spread; with 2 the ops stretched 13%.
inline constexpr int kWorkers = 2;

parallel::ThreadPoolConfig pool_config(int n_threads);

// One fixed-work native op: a fresh Engine on a copy of `start` replays the
// same `steps`-step segment, optionally followed by a pool checkpoint.
struct NativeCase {
  std::string name;
  md::MolecularSystem start;
  md::EngineConfig cfg;
  int steps = 0;
  bool checkpoint = false;
};

struct OpResult {
  double seconds = 0.0;  // run_native (+ checkpoint_text) wall time
  double energy = 0.0;   // total energy after the segment
  std::uint64_t ckpt_hash = 0;
  double ckpt_seconds = 0.0;
  long long rebuilds = 0;
  long long steals = 0;
};

// Runs one op on `pool`; `trace` (may be null) is attached to the engine.
OpResult run_op(const NativeCase& c, parallel::FixedThreadPool& pool, perf::TraceRing* trace,
                Spans* spans);

// The once-per-run reference: the same segment through run_inline (same
// n_threads, hence the same accumulation slots) and a serial checkpoint.
OpResult run_reference(const NativeCase& c);

// Aggregates engine traces: per-phase self time from the Phase brackets
// (bracket minus the brackets nested inside it), task time, and the phase
// overhead (bracket wall minus the busiest worker's task time inside it).
struct TraceAgg {
  std::array<double, md::kNumPhaseTags> self_s{};
  double phase_wall_s = 0.0;
  double task_s = 0.0;
  double overhead_s = 0.0;
  long long n_phases = 0;
  void add(const perf::TraceSnapshot& snap, int external_lane);
};

// Emits md.phase.*, md.rebuilds_per_step, parallel.busy_frac,
// parallel.steals_per_step and parallel.phase_overhead_us.
void report_trace(Report& r, const TraceAgg& agg, long long steps, long long rebuilds,
                  long long steals, int workers);

// The native engine runs its rebuild pipeline (cell binning, CSR prefix
// sum, Morton sort) without Phase brackets, so those three tags are timed
// from outside: one pool call of each public pass on `e`'s current state,
// scaled by how often the engine runs it per step.  Overrides the (zero)
// traced values of md.phase.{bin,nbr-prefix,morton-sort}.ms_per_step.
void probe_rebuild_phases(Report& r, const md::Engine& e, parallel::FixedThreadPool& pool,
                          double rebuilds_per_step);

// Interleaved 1-worker vs `pool`-worker ops (same decomposition):
// parallel.speedup_<n>v1 (wall ratio) and parallel.work_inflation_<n>v1
// (task-time sum ratio), n = pool.n_threads().
void probe_scaling(Report& r, const NativeCase& c, parallel::FixedThreadPool& pool, int pairs,
                   Spans* spans);

// ns per neighbor-list pair of the tiled LJ kernel over `e`'s current list.
double lj_ns_per_pair(const md::Engine& e);
// ns per charged pair of the tiled Coulomb kernel over all of `sys`.
double coulomb_ns_per_pair(const md::MolecularSystem& sys);
// ns per bonded term (radial + angular + torsion) over all of `sys`'s bonds.
double bond_ns_per_term(const md::MolecularSystem& sys);

// Checkpoint round trip of `e` (pool may be null = serial, as serve does):
// save time and bytes, and restore time (load_scene + Engine +
// restore_continuation).  The restored engine is left in `restored`.
struct CheckpointProbe {
  double save_ms = 0.0;
  double bytes = 0.0;
  double restore_ms = 0.0;
};
CheckpointProbe probe_checkpoint(const md::Engine& e, parallel::FixedThreadPool* pool,
                                 std::optional<md::Engine>* restored, Spans* spans);

void report_checkpoint(Report& r, const CheckpointProbe& p);

}  // namespace pb

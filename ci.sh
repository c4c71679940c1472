#!/usr/bin/env bash
# CI gate: the tier-1 verify (full build + test suite) plus the tsan
# preset's concurrency suites (StealDeque/ThreadPool/TaskQueue/QueueModes/
# Latch/Barrier/TraceRing/JobHandle/Reentrancy/Serve/SceneCache/
# RebuildParallel), which pin the lock-free executor paths, the
# idempotent-shutdown fix, the trace ring's merge-at-read protocol, the
# re-entrant shared-pool/serve stack and the parallel rebuild pipeline.
set -euo pipefail
cd "$(dirname "$0")"

jobs=${JOBS:-$(nproc)}

echo "== tier-1: configure + build + ctest (default preset) =="
cmake --preset default
cmake --build --preset default --parallel "${jobs}"
ctest --preset default -j "${jobs}"

echo "== bench smoke: locality emitter (tiny sizes) =="
# Keeps the BENCH_*.json perf emitters from rotting: run the locality bench
# at a tiny atom count and validate the JSON it writes has the expected
# metric groups.
cmake --build --preset default --parallel "${jobs}" --target locality
repo_root=$(pwd)
smoke_dir=$(mktemp -d)
(cd "${smoke_dir}" && "${repo_root}/build/bench/locality" 2 600 4 >/dev/null)
python3 - "${smoke_dir}/BENCH_locality.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "locality", doc.get("bench")
# Artifact identity header (schema v2): every BENCH_*.json emitter carries it.
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") in ("sim", "perf_event", "fallback", "mixed"), \
    f"provider: {doc.get('provider')}"
sim_groups = [k for k in doc if k.startswith("sim.")]
assert len(sim_groups) >= 3, f"expected >=3 sim.* machine groups, got {sim_groups}"
for g in sim_groups:
    keys = doc[g]
    for layout in ("java_objects", "reordered_objects", "packed_soa"):
        for state in ("reorder_off", "reorder_on"):
            for metric in ("l2_miss_pct", "l3_miss_pct", "ms_per_step"):
                k = f"{layout}.{state}.{metric}"
                assert k in keys, f"{g} missing {k}"
native = doc["native"]
for k in ("ns_per_pair_seed", "ns_per_pair_locality", "speedup_locality_vs_seed"):
    assert k in native, f"native missing {k}"
    assert float(native[k]) > 0.0, f"native {k} not positive"
print("BENCH_locality.json OK:", len(sim_groups), "machine groups + native")
EOF
rm -rf "${smoke_dir}"

echo "== counters smoke: PMU conservation + run report =="
# The observability gate: run a short Al-1000 workload through both backends,
# assert the conservation law (per-phase/per-core counter domains must tile
# the machine-global aggregates — mwx_run --check exits nonzero otherwise),
# and exercise the mwx-report joiner end to end.  The native provider is
# allowed to be the labelled "fallback" (perf_event_open is commonly denied
# in containers); only an *unlabelled* or missing provider fails.
cmake --build --preset default --parallel "${jobs}" --target mwx_run
counters_dir=$(mktemp -d)
(cd "${counters_dir}" && "${repo_root}/build/tools/mwx_run" Al-1000 200 4 --name ci --check)
python3 "${repo_root}/tools/mwx-report" --dir "${counters_dir}" --name ci
python3 - "${counters_dir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "REPORT_ci.json")) as f:
    report = json.load(f)
assert report["schema_version"] == 2
assert report["conservation_ok"] is True, "conservation re-verification failed"
assert report["conservation"]["checked"], "conservation was not actually checked"
assert len(report["conservation"]["fields"]) >= 15, "too few fields checked"
native = report["providers"]["native"]
if native == "perf_event":
    print("native provider: perf_event (real hardware counters)")
elif native == "fallback":
    print("native provider: fallback (perf_event denied — acceptable, not a failure)")
else:
    raise AssertionError(f"unlabelled native provider: {native}")
md = open(os.path.join(d, "REPORT_ci.md")).read()
assert "Per-phase memory behaviour" in md and "Conservation" in md
assert len(md) > 500, "markdown report suspiciously small"
print("REPORT_ci OK: conservation holds,", len(report["summary"]), "summary metrics")
EOF
rm -rf "${counters_dir}"

echo "== planner smoke: what-if predictions vs measured extremes =="
# The prescriptive half of the observability stack: one instrumented Al-1000
# run, the full machine x discipline x pinning grid ranked, and the ranked
# extremes validated against actual simulated runs.  mwx_run --plan exits
# nonzero itself when a validated extreme misses --plan-tol, so the tolerance
# gate needs no re-parsing here; the python block asserts the PLAN artifact
# schema and that mwx-report picked the plan section up.
planner_dir=$(mktemp -d)
(cd "${planner_dir}" && "${repo_root}/build/tools/mwx_run" Al-1000 120 4 --name plan --plan --plan-tol 15)
python3 "${repo_root}/tools/mwx-report" --dir "${planner_dir}" --name plan
python3 - "${planner_dir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
with open(os.path.join(d, "PLAN_plan.json")) as f:
    plan = json.load(f)
assert plan["kind"] == "plan" and plan["schema_version"] == 2
assert plan["phase_names"]["4"] == "forces", "phase-name table missing from PLAN"
ref = plan["reference"]
assert ref["benchmark"] == "Al-1000" and ref["self_parallelism"] > 1.0
tags = {(p["tag"], p["rebuild_step"]) for p in plan["profile"]}
assert (4, False) in tags, "forces phase class missing"
assert any(t in tags for t in [(8, True), (9, True)]), "rebuild phase classes missing"
for p in plan["profile"]:
    assert p["work_cycles"] >= 0 and p["self_parallelism"] >= 1.0
configs = plan["configs"]
assert len(configs) >= 12, f"only {len(configs)} configs ranked"
assert [c["rank"] for c in configs] == list(range(1, len(configs) + 1))
seconds = [c["predicted_seconds"] for c in configs]
assert seconds == sorted(seconds), "ranking not sorted by predicted wall time"
validated = [c for c in configs if c["validated"]]
assert len(validated) >= 2, "ranked extremes were not validated"
worst = max(abs(c["error_pct"]) for c in validated)
assert worst <= plan["search"]["tolerance_pct"], f"validated error {worst:.1f}% over tolerance"
assert plan["best"] == configs[0]["config"]
md = open(os.path.join(d, "REPORT_plan.md")).read()
assert "What-if plan" in md and configs[0]["config"] in md
with open(os.path.join(d, "REPORT_plan.json")) as f:
    assert f.read().find('"plan"') >= 0
print(f"PLAN OK: {len(configs)} configs, {len(validated)} validated, worst error {worst:.1f}%")
EOF
rm -rf "${planner_dir}"

echo "== bench smoke: raw_speed ablation emitter (tiny sizes) =="
# The tier-2 speed ablation must keep its bit-identity guarantees (the bench
# exits nonzero on any energy mismatch vs the scalar inline reference) and
# its JSON schema: one variant_* group per cumulative ablation step plus the
# PME micro-timing group.
cmake --build --preset default --parallel "${jobs}" --target raw_speed
raw_dir=$(mktemp -d)
(cd "${raw_dir}" && "${repo_root}/build/bench/raw_speed" 512 6 4 2 >/dev/null)
python3 - "${raw_dir}/BENCH_raw_speed.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "raw_speed", doc.get("bench")
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "native", f"provider: {doc.get('provider')}"
variants = ["baseline", "tiled_coulomb", "overlap", "numa"]
for i, v in enumerate(variants):
    g = doc.get("variant_" + v)
    assert g, f"missing variant_{v} group"
    assert int(float(g["order"])) == i, f"variant_{v} out of order"
    assert float(g["seconds_per_step"]) > 0.0, f"variant_{v} has no timing"
    assert float(g["energy_bits_match_scalar"]) == 1.0, \
        f"variant_{v} diverged from the scalar reference"
assert float(doc["variant_baseline"]["speedup_vs_baseline"]) == 1.0
pme = doc["pme"]
assert float(pme["bits_match"]) == 1.0, "PME vectorized path diverged"
assert float(pme["scalar_seconds"]) > 0.0 and float(pme["vectorized_seconds"]) > 0.0
print("BENCH_raw_speed.json OK:", len(variants), "variants + pme micro")
EOF
rm -rf "${raw_dir}"

echo "== serve smoke: multi-tenant scheduler + traffic emitter =="
# The simulation-as-a-service acceptance gate.  mwx_serve runs >=8 concurrent
# jobs from 2 tenants over one shared pool — once uninterrupted and once with
# preempt_slice=7 so every job is checkpointed and resumed mid-run — and
# exits nonzero unless every job's energies are bitwise-identical to a
# dedicated single-engine pool.  serve_traffic then drives a closed-loop
# mixed batch (2 tenants x 4 clients x 2 jobs) through BOTH scheduler phases
# (fair-share vs preempt+deadline) and its BENCH_serve.json is
# schema-validated: per-phase per-tenant p50/p95/p99, preemption counters,
# deadline hit rate, sample-ring drops, cache stats, and the
# energy_bits_match verification flag covering preempted jobs.
cmake --build --preset default --parallel "${jobs}" --target mwx_serve_cli serve_traffic
serve_dir=$(mktemp -d)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2)
(cd "${serve_dir}" && "${repo_root}/build/tools/mwx_serve" Al-1000 8 20 4 2 7)
(cd "${serve_dir}" && "${repo_root}/build/bench/serve_traffic" 2 4 2 4 >/dev/null)
python3 - "${serve_dir}/BENCH_serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "serve", doc.get("bench")
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "native", f"provider: {doc.get('provider')}"
for phase in ("fairshare", "preempt"):
    tenants = [k for k in doc if k.startswith(phase + ".tenant.")]
    assert len(tenants) >= 2, f"expected >=2 {phase} tenant groups, got {tenants}"
    for g in tenants:
        keys = doc[g]
        for metric in ("jobs", "weight", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
                       "jobs_per_sec"):
            assert metric in keys, f"{g} missing {metric}"
        assert float(keys["p50_ms"]) <= float(keys["p95_ms"]) <= float(keys["p99_ms"]), \
            f"{g} percentiles not monotone"
assert float(doc["fairshare.sched"]["preemptions"]) == 0.0, \
    "fair-share phase must not preempt"
assert float(doc["preempt.sched"]["preemptions"]) > 0.0, \
    "preempt phase never preempted a bulk job"
th = doc["throughput"]
assert float(th["jobs_total"]) == 32.0, f"jobs_total: {th['jobs_total']}"
assert float(th["jobs_per_sec"]) > 0.0
assert float(th["failed_jobs"]) == 0.0, f"failed jobs: {th['failed_jobs']}"
dl = doc["deadline"]
assert float(dl["jobs"]) > 0.0, "preempt phase submitted no deadline jobs"
assert 0.0 <= float(dl["hit_rate"]) <= 1.0
assert float(doc["samples"]["dropped_total"]) > 0.0, \
    "bulk jobs should overflow the bounded sample ring"
comp = doc["compare"]
assert "small_p99_fairshare_ms" in comp and "small_p99_preempt_ms" in comp
cache = doc["cache"]
assert float(cache["hits"]) + float(cache["misses"]) > 0.0
assert float(doc["verify"]["energy_bits_match"]) == 1.0, \
    "shared-pool energies diverged from the dedicated-pool reference"
assert float(doc["verify"]["preempted_jobs_checked"]) > 0.0, \
    "no preempted-and-resumed job was verified"
print("BENCH_serve.json OK: both phases, preempted jobs bit-checked,"
      " deadline hit rate", doc["deadline"]["hit_rate"])
EOF
rm -rf "${serve_dir}"

echo "== scale smoke: 100k-atom parallel-rebuild determinism gate =="
# The workload-axis gate: a 100k-atom bulk crystal through every parallel
# rebuild pass (bin / prefix scan / Morton radix / chunked scene serializer)
# at 1/2/4/T threads, plus a short native engine run with parallel_rebuild
# off vs on.  scaling_atoms exits nonzero on ANY byte/bit divergence from the
# serial references, so the schema check below only runs on verified output.
cmake --build --preset default --parallel "${jobs}" --target scaling_atoms
scale_dir=$(mktemp -d)
(cd "${scale_dir}" && "${repo_root}/build/bench/scaling_atoms" 100000 2 4 0 >/dev/null)
python3 - "${scale_dir}/BENCH_scaling.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "scaling", doc.get("bench")
assert doc.get("schema_version") == 2, f"schema_version: {doc.get('schema_version')}"
assert doc.get("git_sha"), "git_sha missing or empty"
assert doc.get("provider") == "native", f"provider: {doc.get('provider')}"
for n in (10000, 100000):
    rg = doc[f"rebuild.n{n}"]
    for phase in ("bin", "prefix", "sort", "scene"):
        for mode in ("serial", "parallel"):
            k = f"{phase}_{mode}_ms"
            assert float(rg[k]) >= 0.0, f"rebuild.n{n} missing {k}"
    assert float(rg["scene_bytes"]) > 0.0
    eg = doc[f"engine.n{n}"]
    assert float(eg["serial_rebuild_ms"]) > 0.0 and float(eg["parallel_rebuild_ms"]) > 0.0
verify = doc["verify"]
assert verify, "verify group missing"
for key, flag in verify.items():
    assert float(flag) == 1.0, f"determinism flag {key} = {flag}"
assert "droplet_phases_identical" in verify, "droplet stress case missing"
print("BENCH_scaling.json OK:", len(verify), "determinism flags all 1")
EOF
rm -rf "${scale_dir}"

echo "== perfbench smoke: droplet_100k checks pass, and all fail on corrupted references =="
# The repo benchmark (BENCHMARK.json) on its 100k-atom droplet for 2 s: every
# op's energies are checked against run_inline and its pooled 27 MB restart
# text is hashed against the serial writer's and round-tripped.  The honest
# run must report "correct":true; with --corrupt-ref every reference value is
# perturbed, so every check must fail (failed == attempted > 0) — a check
# that cannot fail verifies nothing.
perfbench_dir=$(mktemp -d)
python3 perfbench/run.py --workload droplet_100k --seed 1 --seconds 2 --trace 0 \
  > "${perfbench_dir}/honest.txt"
python3 perfbench/run.py --workload droplet_100k --seed 1 --seconds 2 --trace 0 --corrupt-ref \
  > "${perfbench_dir}/corrupt.txt"
python3 - "${perfbench_dir}" <<'EOF'
import json, os, sys
d = sys.argv[1]
def result(name):
    with open(os.path.join(d, name)) as f:
        return json.loads(f.read().strip().splitlines()[-1])
honest = result("honest.txt")
assert honest["correct"] is True, f"honest run not correct: {honest}"
assert honest["failed"] == 0 and honest["attempted"] > 0, honest
corrupt = result("corrupt.txt")
assert corrupt["attempted"] > 0 and corrupt["failed"] == corrupt["attempted"], \
    f"corrupted references: {corrupt['failed']} of {corrupt['attempted']} checks failed"
print(f"perfbench OK: {honest['attempted']} checks pass; "
      f"{corrupt['failed']}/{corrupt['attempted']} fail on corrupted references")
EOF
rm -rf "${perfbench_dir}"

echo "== forced-scalar: build + ctest with MWX_AVX2=OFF (scalar preset) =="
# The bit-identity suites must hold in both ISAs: the vectorized lane loops
# are value-preserving claims about *expressions*, not about AVX2.
cmake --preset scalar
cmake --build --preset scalar --parallel "${jobs}"
ctest --preset scalar -j "${jobs}"

echo "== tsan: concurrency suites (tsan preset) =="
cmake --preset tsan
cmake --build --preset tsan --parallel "${jobs}"
ctest --preset tsan -j "${jobs}"

echo "CI OK"

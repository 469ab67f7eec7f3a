#!/usr/bin/env python3
"""The repository benchmark: three workloads, one command.

    python3 perfbench/run.py --workload search|suite|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from the repository root. It builds the program from source in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, checks the program's outputs, prints every metric by name and
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics (layers a workload does not run read 0). End-to-end
times are normalised to the reference host's speed by a calibration
kernel run beside every timed sample (probe/src/calibrate.rs); the raw
times are printed too.
`--record-digests` re-records the expected data-row digests of the
`suite` and `serve` binaries into perfbench/digests.json; run it only when
a change alters figure or serving output on purpose. See NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROBE_MANIFEST = os.path.join(BENCH_DIR, "probe", "Cargo.toml")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The paper's figure and table binaries, run one after another.
SUITE_BINS = [
    "fig03_compression_ratio",
    "fig09_multicore_clueweb",
    "fig10_multicore_ccnews",
    "fig11_bandwidth_clueweb",
    "fig12_bandwidth_ccnews",
    "fig13_singlecore",
    "fig14_evaluated_docs",
    "fig15_memory_accesses",
    "fig16_dram_vs_scm",
    "fig17_energy",
    "table01_config",
    "table03_area_power",
]
SERVE_BIN = "serving_latency"
SERVE_ARGS = ["--shards", "4", "--arrivals", "bursty"]
# `serve` draws its serving seeds from this many recorded input sets, so
# every run has recorded data rows to check against.
SERVE_SEEDS = 16
# Input sets one `serve` run sweeps, `SERVE_STRIDE` apart. Each draws its
# own queries and arrivals, so the run's figures average over several of
# them rather than hanging on one seed's query mix. The offsets 0, 5, 10,
# 15 are distinct and no shift maps them onto themselves, so the 16 run
# seeds mod 16 give 16 different combinations.
SERVE_INPUTS = 4
SERVE_STRIDE = 5
SEARCH_QUERIES = {"small": 3000, "smoke": 90}
# The share of the --seconds budget one untraced pass takes on the
# reference host, its share of the set-ups and checks included (see
# NOTES.md). A run makes ceil(--seconds / PASS_S) passes, at least
# MIN_PASSES: the count depends on --seconds alone, never on how fast the
# build under test is, so each best-of-N figure has the same N on every
# commit.
PASS_S = {"search": 3.4, "suite": 15.0, "serve": 10.0}
MIN_PASSES = 2
# In-process set-ups per `suite` / `serve` run (the probe makes its own
# for `search`), interleaved with equal slices of the passes.
SETUP_REPS = 3

# Per-layer metrics each workload measures; the rest read 0 on it.
SEARCH_LAYERS = [
    "workload.gen_s", "index.spimi_write_s", "index.open_s", "index.merge_s",
    "core.init_s", "index.bytes_per_posting", "core.parse_ns", "core.plan_ns",
    "core.search_p50_ns", "core.search_p99_ns", "index.decode_ns_per_block",
    "index.decode_share", "index.score_ns_per_doc", "index.score_share",
    "core.topk_ns_per_offer", "core.topk_share", "scm.access_ns", "scm.share",
    "core.residual_share", "core.sim_cycles", "core.docs_scored",
    "core.blocks_fetched", "core.blocks_skipped", "core.topk_inserts",
    "scm.accesses", "scm.bytes", "core.fetch_ratio", "core.docs_scored_per_hit",
    "bench.span_coverage",
]
# The layer-sum gate: traced parse + search_expr spans over the untraced
# query span must fall inside this band.
SPAN_COVERAGE_BAND = (0.85, 1.15)


class BenchError(Exception):
    """A failure that stops the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Release-builds the probe and the binaries the workloads run."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError(f"no repository sources at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    bins = [arg for b in SUITE_BINS + [SERVE_BIN] for arg in ("--bin", b)]
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", PROBE_MANIFEST],
        ["cargo", "build", "--release", "--offline", "-p", "boss-bench"] + bins,
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    # Refuse anything but an optimised build.
    release = os.path.join(target_dir(), "release")
    for name in ["perfbench-probe", SERVE_BIN] + SUITE_BINS:
        if not os.access(os.path.join(release, name), os.X_OK):
            raise BenchError(f"release binary {name} missing")
    return release


class Calibrator:
    """The probe's host-speed reference kernel, in one process kept for
    the run; `sample()` runs the kernel once and returns its time in units
    of the reference time."""

    def __init__(self, probe, cwd, env):
        self.proc = subprocess.Popen([probe, "calibrate"], cwd=cwd, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("calibration process ended early")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def speed_factor(before, after):
    """Scales a time measured between two calibration samples to the
    reference host's speed (as `speed_factor` in calibrate.rs)."""
    return 2.0 / (before + after)


class Child:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv, cwd, env):
        out_path = os.path.join(cwd, "stdout.txt")
        with open(out_path, "wb") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        if self.code != 0:
            with open(os.path.join(cwd, "stderr.txt"), encoding="utf-8", errors="replace") as f:
                log(f"{os.path.basename(argv[0])} exited {self.code}: {f.read()[-2000:]}")

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError("probe failed")
        return json.loads(lines[-1])


def data_digest(stdout):
    """SHA-256 of a binary's data rows (every line not starting with #)."""
    rows = [l for l in stdout.splitlines() if not l.startswith("#")]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class Run:
    def __init__(self, args, release, tmp, digests):
        self.args = args
        self.digests = digests
        self.release = release
        self.tmp = tmp
        self.scale = "smoke" if args.smoke else "small"
        self.nproc = os.cpu_count() or 1
        self.env = dict(os.environ, TMPDIR=tmp)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.e2e = {}
        self.layers = {}
        self.counts = {}
        self.cal = None
        self.last_cal = None
        self.factors = []

    def bin(self, name):
        return os.path.join(self.release, name)

    def child(self, argv):
        """Runs one timed child between two calibration samples; its
        `norm_s` is its wall time at the reference host's speed."""
        self.attempted += 1
        if self.cal is None:
            self.cal = Calibrator(self.bin("perfbench-probe"), self.tmp, self.env)
        if self.last_cal is None:
            self.last_cal = self.cal.sample()
        c = Child(argv, self.tmp, self.env)
        after = self.cal.sample()
        factor = speed_factor(self.last_cal, after)
        self.last_cal = after
        self.factors.append(factor)
        c.norm_s = c.seconds * factor
        if c.code != 0:
            self.failed += 1
        return c

    def close(self):
        if self.cal is not None:
            self.cal.close()

    def probe(self, *argv):
        return Child([self.bin("perfbench-probe")] + [str(a) for a in argv], self.tmp, self.env)

    def expect(self, ok, problem):
        if not ok:
            self.problems.append(problem)

    def passes(self, workload):
        return max(MIN_PASSES, math.ceil(self.args.seconds / PASS_S[workload]))

    def measure(self, workload, one_pass):
        """Alternates SETUP_REPS in-process set-ups with equal slices of
        the workload's passes, so the passes spread over the whole run.
        Returns the pass count and the set-ups."""
        setups, n, total = [], 0, self.passes(workload)
        for rep in range(SETUP_REPS):
            setups.append(self.probe("setup", "--workload", workload,
                                     "--scale", self.scale).last_json())
            self.last_cal = None
            while n < total * (rep + 1) // SETUP_REPS:
                one_pass()
                n += 1
        return n, setups

    # -- search ---------------------------------------------------------

    def search(self):
        a = self.args
        hits = os.path.join(self.tmp, "hits.bin")
        seg = os.path.join(self.tmp, "segments")
        os.makedirs(seg)
        c = self.probe("search", "--seed", a.seed, "--trace", a.trace, "--scale", self.scale,
                       "--queries", SEARCH_QUERIES[self.scale], "--passes", self.passes("search"),
                       "--dir", seg, "--hits", hits)
        r = c.last_json()
        self.attempted += int(r["attempted"])
        self.failed += int(r["failed"])
        self.expect(r["mismatches"] == 0,
                    f"{int(r['mismatches'])} repeated queries returned other hits than their first run")
        o = self.probe("oracle", "--scale", self.scale, "--hits", hits).last_json()
        self.expect(o["mismatches"] == 0 and o["checked"] == r["answered"],
                    f"oracle: {int(o['mismatches'])} of {int(o['checked'])} hit lists differ "
                    "from reference::evaluate")
        setups = [r[k] for k in sorted(r) if k.startswith("setup_rep")]
        print(f"# search: {int(r['queries'])} trec_like_mix queries/pass, k=1000, threads 1 (one closed-loop "
              f"client), {int(r['passes'])} passes over {len(setups)} set-ups, "
              f"{int(r['attempted'])} queries run")
        print(f"# oracle: {int(o['distinct'])} distinct queries checked against "
              f"reference::evaluate, {int(o['mismatches'])} mismatches")
        if a.trace == 0:
            qps = r["qps"]
            self.e2e = {
                "setup_s": r["setup_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "wall_s": r["pass_s"],
                "op_p50_ms": r["p50_us"] / 1e3,
            }
            print(f"search_qps = {qps:.1f} queries/s")
            print(f"search_p50_us = {r['p50_us']:.1f} us")
            print(f"search_p99_us = {r['p99_us']:.1f} us")
            print(f"# set-up reps (s): {[round(x, 4) for x in setups]}")
            print(f"# raw: pass {r['raw_pass_s']:.4f} s, set-up {r['raw_setup_s']:.4f} s; "
                  f"median speed factor {r['speed_factor']:.4f}")
        else:
            self.layers = {k: r[k] for k in SEARCH_LAYERS + ["bench.trace_overhead"]}
            lo, hi = SPAN_COVERAGE_BAND
            cov = r["bench.span_coverage"]
            self.expect(lo <= cov <= hi,
                        f"layer-sum gate: parse + search_expr spans cover {cov:.3f} of the "
                        f"query span, outside [{lo}, {hi}]")
            print(f"# layer-sum gate: spans cover {cov:.3f} of the untraced query span "
                  f"(tolerance [{lo}, {hi}])")
        self.counts = {k: r[k] for k in ("core.sim_cycles", "core.docs_scored",
                                         "core.blocks_fetched", "core.blocks_skipped",
                                         "core.topk_inserts", "scm.accesses", "scm.bytes")
                       if k in r}

    # -- suite ----------------------------------------------------------

    def suite(self):
        best = {b: float("inf") for b in SUITE_BINS}
        samples = {b: [] for b in SUITE_BINS}
        rss = [0.0]
        expected = self.digests.get(self.scale, {}).get("suite", {})
        scale = ["--scale", "smoke"] if self.args.smoke else []

        raw = dict(best)

        def one_pass():
            for b in SUITE_BINS:
                c = self.child([self.bin(b), "--threads", str(self.nproc)] + scale)
                best[b] = min(best[b], c.norm_s)
                samples[b].append(c.norm_s)
                raw[b] = min(raw[b], c.seconds)
                rss[0] = max(rss[0], c.rss_mb)
                self.expect(data_digest(c.stdout) == expected.get(b),
                            f"{b}: data rows differ from the recorded digest")

        n, setups = self.measure("suite", one_pass)
        times = list(best.values())
        print(f"# suite: {len(SUITE_BINS)} binaries x {n} passes, --threads {self.nproc}, "
              f"each binary's time is its best pass")
        for b in SUITE_BINS:
            print(f"# {b}: {best[b]:.3f} s (passes: {', '.join(f'{x:.3f}' for x in samples[b])})")
        print(f"suite_s = {sum(times):.3f} s")
        self.print_raw(sum(raw.values()), setups)
        if self.args.trace == 0:
            self.e2e = {
                "setup_s": statistics.median(x["setup_s"] for x in setups),
                "peak_rss_mb": rss[0],
                "wall_s": sum(times),
                "op_p50_ms": statistics.median(times) * 1e3,
            }
        else:
            self.untraced_children()
            layers = self.probe("suite-layers", "--scale", self.scale).last_json()
            self.layers = {f"suite.{b.split('_')[0]}_s": best[b] for b in SUITE_BINS}
            self.layers.update(layers)
            self.counts = {"engine.executions": layers["engine.executions"]}

    # -- serve ----------------------------------------------------------

    def serve(self):
        inputs = [(3 * self.args.seed + SERVE_STRIDE * j) % SERVE_SEEDS for j in range(SERVE_INPUTS)]
        times = {i: [] for i in inputs}
        raw = {i: [] for i in inputs}
        reports, rss = {}, [0.0]
        expected = self.digests.get(self.scale, {}).get("serve", {})
        scale = ["--scale", "smoke", "--queries-per-type", "20"] if self.args.smoke else []

        def json_path(i):
            return os.path.join(self.tmp, f"BENCH_serving-{i}.json")

        def one_pass():
            for i in inputs:
                c = self.child([self.bin(SERVE_BIN)] + SERVE_ARGS + scale
                               + ["--threads", str(self.nproc), "--seed", str(i),
                                  "--json", json_path(i)])
                times[i].append(c.norm_s)
                raw[i].append(c.seconds)
                rss[0] = max(rss[0], c.rss_mb)
                self.expect(data_digest(c.stdout) == expected.get(str(i)),
                            f"{SERVE_BIN} --seed {i}: data rows differ from the recorded digest")
                if c.code == 0:
                    with open(json_path(i), encoding="utf-8") as f:
                        reports[i] = json.load(f)

        n, setups = self.measure("serve", one_pass)
        best = [min(times[i]) for i in inputs]
        print(f"# serve: {SERVE_BIN} {' '.join(SERVE_ARGS)} --threads {self.nproc} "
              f"--seed {inputs} (3 x run seed + {SERVE_STRIDE} x 0..{SERVE_INPUTS - 1}, "
              f"mod {SERVE_SEEDS}), {n} passes over the {SERVE_INPUTS} input sets; "
              f"each input set's time is its best pass, serve_s their mean")
        for i, b in zip(inputs, best):
            print(f"# --seed {i}: {b:.3f} s (passes: {', '.join(f'{x:.3f}' for x in times[i])})")
        serve_s = statistics.mean(best)
        print(f"serve_s = {serve_s:.3f} s")
        self.print_raw(statistics.mean(min(raw[i]) for i in inputs), setups)
        dispositions = {k: sum(row[k] for r in reports.values() for row in r["results"])
                        for k in ("served", "rejected", "expired", "shed")}
        self.counts = {f"serving.{k}": v for k, v in dispositions.items()}
        if self.args.trace == 0:
            self.e2e = {
                "setup_s": statistics.median(x["setup_s"] for x in setups),
                "peak_rss_mb": rss[0],
                "wall_s": serve_s,
                "op_p50_ms": statistics.median(best) * 1e3,
            }
        else:
            self.untraced_children()
            # The replay takes its configuration from the report the first
            # input set wrote, and must reproduce that report's dispositions.
            layers = self.probe("serve-layers", "--scale", self.scale, "--seed", inputs[0],
                                "--report", json_path(inputs[0])).last_json()
            self.expect(layers["replay_mismatches"] == 0,
                        f"serving replay: {int(layers['replay_mismatches'])} scenarios differ "
                        f"from {SERVE_BIN}'s dispositions")
            self.layers = dict(layers)
            self.layers["index.shard_split_s"] = statistics.median(
                x["index.shard_split_s"] for x in setups)

    # -- result ---------------------------------------------------------

    def print_raw(self, wall, setups):
        print(f"# raw: wall {wall:.4f} s, set-up "
              f"{statistics.median(x['raw_setup_s'] for x in setups):.4f} s; "
              f"median speed factor {statistics.median(self.factors):.4f}")

    def untraced_children(self):
        print("# bench.trace_overhead reads 0: no span enters the child binaries, so a "
              "traced pass runs exactly what an untraced one does")

    def result(self, spec):
        group = "end_to_end" if self.args.trace == 0 else "per_layer"
        measured = self.e2e if self.args.trace == 0 else self.layers
        metrics = {}
        for m in spec[group]:
            value = measured.get(m["name"], 0.0)
            if value is None:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} = {value:.6g} {m['unit']}")
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"error_rate = {error_rate:.6g} fraction ({self.failed}/{self.attempted})")
        print(f"# counts {json.dumps(self.counts, sort_keys=True)}")
        for p in self.problems:
            print(f"# CHECK FAILED: {p}")
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def record_digests(release, tmp):
    """Re-records the data-row digests of every suite binary and every serve seed."""
    env = dict(os.environ, TMPDIR=tmp)
    nproc = str(os.cpu_count() or 1)
    digests = {}
    for scale in ("small", "smoke"):
        flag = ["--scale", scale]
        suite = {}
        for b in SUITE_BINS:
            c = Child([os.path.join(release, b), "--threads", nproc] + flag, tmp, env)
            if c.code != 0:
                raise BenchError(f"{b} failed")
            suite[b] = data_digest(c.stdout)
        serve = {}
        extra = ["--queries-per-type", "20"] if scale == "smoke" else []
        for seed in range(SERVE_SEEDS):
            c = Child([os.path.join(release, SERVE_BIN)] + SERVE_ARGS + flag + extra
                      + ["--threads", nproc, "--seed", str(seed),
                         "--json", os.path.join(tmp, "BENCH_serving.json")], tmp, env)
            if c.code != 0:
                raise BenchError(f"{SERVE_BIN} --seed {seed} failed")
            serve[str(seed)] = data_digest(c.stdout)
        digests[scale] = {"suite": suite, "serve": serve}
        log(f"recorded {scale} digests")
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["search", "suite", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smoke-scale corpora and few queries (tests of the benchmark)")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    if not args.workload and not args.record_digests:
        p.error("--workload is required")

    release = build()
    tmp = os.path.join(target_dir(), "perfbench-tmp", f"{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        if args.record_digests:
            record_digests(release, tmp)
            return
        with open(SPEC, encoding="utf-8") as f:
            spec = json.load(f)
        with open(DIGESTS, encoding="utf-8") as f:
            run = Run(args, release, tmp, json.load(f))
        print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} scale={run.scale} nproc={run.nproc}")
        try:
            getattr(run, args.workload)()
        finally:
            run.close()
        result = run.result(spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, TypeError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)

#!/usr/bin/env python3
"""The benchmark's own test.  Run from the repository root:

    python3 hmcbench/test_bench.py

It builds the benchmark binary the way run.py does, then checks:

1. Held-out seed: every workload, untraced and traced, finishes with no
   failed output check and prints every metric BENCHMARK.json names.
   The simulated-stats digest is the same in both runs.
2. Traced runs write their span file.  The chain.* work counts are zero
   on gups_1cube and vault_sweep and non-zero on chain8_hotspot.
3. Slicing guard: 200 x 1 us steps simulate exactly what one unbroken
   200 us run() does, on the single cube and on the 8-cube ring.
4. Paper anchor: gups_1cube's paper_err_pct is about 1.4
   (23.33 GB/s simulated vs Fig. 6's 23 GB/s).

Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.HERE)
SECONDS = "2"
CHAIN_COUNTS = ("chain.transit_flits", "chain.rx_hol_stalls",
                "chain.misroutes")


def fail(msg):
    sys.exit("FAIL: " + msg)


def invoke(exe, *args):
    r = subprocess.run([exe] + list(args), capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    return r.returncode, r.stdout


def parse(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = re.findall(r"digest=(0x[0-9a-f]+)", stdout)
    human = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            human[parts[1]] = float(parts[2])
    return result, digests, human


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    exe = run.build()
    trace_dir = os.path.join(run.build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    seed = str(run.HELD_OUT_SEED)

    for w in run.WORKLOADS:
        digests = set()
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            code, out = invoke(exe, "--workload", w, "--seed", seed,
                               "--seconds", SECONDS, "--trace", trace,
                               "--trace-dir", trace_dir)
            result, ds, human = parse(out)
            if code != 0 or not result["correct"] or result["failed"]:
                fail("%s trace=%s: checks failed\n%s" % (w, trace, out))
            if set(result["metrics"]) != names:
                fail("%s trace=%s: metrics %s, want %s" %
                     (w, trace, sorted(result["metrics"]), sorted(names)))
            digests.update(ds)
            if trace == "0" and w == "gups_1cube":
                err = human.get("paper_err_pct", -1.0)
                if not 1.0 <= err <= 2.0:
                    fail("gups_1cube paper_err_pct %.3f, want ~1.4" % err)
            if trace == "1":
                span_file = os.path.join(trace_dir,
                                         "%s_seed%s.trace.json" % (w, seed))
                with open(span_file) as f:
                    if not json.load(f)["traceEvents"]:
                        fail(span_file + " holds no spans")
                counts = [result["metrics"][m]["value"] for m in CHAIN_COUNTS]
                if w == "chain8_hotspot":
                    if counts[0] <= 0:
                        fail("chain8_hotspot moved no transit flits")
                elif any(counts):
                    fail("%s: chain work counts %s, want zero" % (w, counts))
        if len(digests) != 1:
            fail("%s: simulated-stats digests differ: %s" % (w, digests))
        print("ok %s seed %s digest %s" % (w, seed, digests.pop()))

    code, out = invoke(exe, "--selftest", "slicing", "--seed", seed)
    print(out, end="")
    if code != 0:
        fail("slicing guard")
    print("PASS")


if __name__ == "__main__":
    main()

"""Seed 0 of every benchmark workload reproduces its pinned outputs, bit for bit.

``perfbench/expected.json`` pins each workload's quality figures and the
SHA-256 of its output files per seed. This test replays one pass of every
workload (aq_analytic, aq_blackbox, ap_train, phy_lightmap) at seed 0 through
the benchmark's own ``run.run_pass`` and ``run.output_checks``, in a fresh
process with one BLAS thread as ``perfbench/run.py`` runs them. It writes
only under ``tmp_path``; it never runs ``pin.py``, which rewrites
``expected.json``. A re-pin updates this test through ``expected.json`` alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("aq_analytic", "aq_blackbox", "ap_train", "phy_lightmap")
SEED = 0

REPLAY = """
import json, sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, workloads

expected = workloads.load_expected()
problems = {}
for name in sys.argv[4:]:
    if str(%(seed)d) not in expected.get(name, {}):
        problems[name] = ["no pin for seed %(seed)d"]
        continue
    workload = workloads.WORKLOADS[name](Path(sys.argv[3]) / name, seed=%(seed)d)
    workload.prepare()
    result = run.run_pass(workload)
    problems[name] = run.output_checks(workload, [result], expected)
env = run.environment()
print(json.dumps({"problems": problems, "numpy": env["numpy"], "blas": env["blas"]}))
""" % {"seed": SEED}


def test_seed_0_replays_its_pins(tmp_path):
    env = dict(os.environ, **{var: "1" for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path), *WORKLOADS],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    failed = {name: found for name, found in report["problems"].items() if found}
    assert not failed, (f"outputs differ from perfbench/expected.json under numpy "
                        f"{report['numpy']} with BLAS {report['blas']}: {failed}")
    assert sorted(report["problems"]) == sorted(WORKLOADS)

#!/usr/bin/env python3
"""Measure one cold set-up: a fresh process up to the start of the first unit.

The clock starts before the package is imported, so the figure covers
imports, corpus generation or manifest and PNG loading, embedder
construction and endpoint spawn plus handshake. The command in the spec is
run through ``advrelight.cli.cli`` and stopped when it first calls the
workload's unit function; its endpoint, if any, is closed on the way out.

Usage: python3 perfbench/setup_probe.py '{"argv": [...], "stop": ["attack_aq", "attack"]}'
Prints ``{"setup_s": <seconds>}``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import advrelight.cli  # noqa: E402


class FirstUnit(Exception):
    """Raised at the start of the first unit, carrying the time it started."""


def main() -> int:
    spec = json.loads(sys.argv[1])
    module_name, fn_name = spec["stop"]
    original = getattr(sys.modules[f"advrelight.{module_name}"], fn_name)

    def stop(*args, **kwargs):
        raise FirstUnit(time.perf_counter())

    for name, module in list(sys.modules.items()):
        if name.startswith("advrelight"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, stop)
    try:
        rc = advrelight.cli.cli(spec["argv"])
    except FirstUnit as reached:
        print(json.dumps({"setup_s": reached.args[0] - T0}))
        return 0
    print(f"command returned {rc} before its first unit", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

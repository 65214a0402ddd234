"""Every CSV writer's bytes against ``csv.writer`` with 6-significant-digit float cells."""

import csv
import io
from types import SimpleNamespace

import numpy as np

from advrelight import attack_ap, attack_aq, cli, harness
from advrelight.shading import as_light, write_csv

#: Floats whose text is easy to get wrong: signed zero, exponents, non-finite values.
SPECIAL = [-0.0, 1e-5, 1e16, float("nan"), float("inf"), -float("inf"), 0.1234565, 1234567.0,
           -2.5e-300, 5e-324, 1.7976931348623157e308, 100000.0, 999999.5]


def oracle(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` then ``rows``, floats as ``f"{v:.6g}"``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([f"{v:.6g}" if isinstance(v, (float, np.floating)) else v for v in row]
                     for row in rows)
    return text.getvalue().encode()


def floats(rng, n):
    """``n`` floats over many decades, with every special value among them."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    values[:len(SPECIAL)] = SPECIAL[:n]
    return rng.permutation(values)


def test_write_csv_cells_of_every_type(tmp_path):
    rng = np.random.default_rng(0)
    header = ["s", "i", "ni", "nu", "f", "nf", "nf32", "b"]
    rows = [["aq", 3, np.int64(-7), np.uint8(200), v, np.float64(-v),
             np.float32(np.clip(v, -1e30, 1e30)), True] for v in floats(rng, 40)]
    write_csv(tmp_path / "t.csv", header, iter(rows))
    assert (tmp_path / "t.csv").read_bytes() == oracle(header, rows)
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == oracle(header, [])


def test_roc_csv_of_4189_rows(tmp_path):
    rng = np.random.default_rng(1)
    points = np.column_stack([np.sort(rng.random(4189)), np.sort(rng.random(4189)),
                              floats(rng, 4189)])
    points[0] = (0.0, -0.0, np.inf)
    harness.write_roc_csv(tmp_path / "roc.csv", harness.ROCResult(points=points, auc=0.5))
    assert (tmp_path / "roc.csv").read_bytes() == oracle(["fpr", "tpr", "threshold"], points)


def test_summary_csv_holds_method_names(tmp_path):
    rng = np.random.default_rng(2)
    reports = [SimpleNamespace(method=m, epsilon=e, auc=a, mean_abs_change=c)
               for m, e, (a, c) in zip(["none", "random", "aq", "ap"], [0, 0.5, np.float64(1), 2.0],
                                       floats(rng, 8).reshape(4, 2))]
    harness.write_summary_csv(tmp_path / "summary.csv", reports)
    expected = oracle(["method", "epsilon", "auc", "mean_abs_change"],
                      [[r.method, float(r.epsilon), r.auc, r.mean_abs_change] for r in reports])
    assert (tmp_path / "summary.csv").read_bytes() == expected


def test_lights_csv(tmp_path):
    rng = np.random.default_rng(3)
    pairs = [(as_light(a), as_light(b)) for a, b in rng.standard_normal((5, 2, 9))]
    pairs[1] = (as_light([-0.0, 1e-5, 1e16, 0, 0, 0, 0, 0, 1.0]), pairs[1][1])
    harness.write_lights_csv(tmp_path / "lights.csv", SimpleNamespace(light_pairs=pairs))
    header = ["index"] + [f"L{j}" for j in range(9)] + [f"Lhat{j}" for j in range(9)]
    expected = oracle(header, [[i, *a, *b] for i, (a, b) in enumerate(pairs)])
    assert (tmp_path / "lights.csv").read_bytes() == expected


def test_hexhist_csv(tmp_path):
    rng = np.random.default_rng(4)
    centers = floats(rng, 30).reshape(15, 2)
    counts = rng.integers(0, 10**7, 15)
    harness.write_hexhist_csv(tmp_path / "hexhist.csv",
                              SimpleNamespace(centers=centers, counts=counts))
    expected = oracle(["center_x", "center_y", "count"],
                      [[x, y, int(c)] for (x, y), c in zip(centers, counts)])
    assert (tmp_path / "hexhist.csv").read_bytes() == expected


def test_attack_trace_csv(tmp_path):
    rng = np.random.default_rng(5)
    trace = SimpleNamespace(lights=floats(rng, 99).reshape(9, 11)[:, :9],
                            similarities=floats(rng, 9), clamp_fractions=rng.random(9))
    attack_aq.write_trace_csv(tmp_path / "trace.csv", trace)
    header = ["iteration"] + [f"L{j}" for j in range(9)] + ["similarity", "clamp_fraction"]
    expected = oracle(header, [[i, *light, s, c] for i, (light, s, c) in enumerate(
        zip(trace.lights, trace.similarities, trace.clamp_fractions))])
    assert (tmp_path / "trace.csv").read_bytes() == expected


def test_loss_history_csv(tmp_path):
    history = [float(v) for v in floats(np.random.default_rng(6), 20)]
    attack_ap.write_loss_history_csv(tmp_path / "loss.csv", history)
    expected = oracle(["epoch", "mean_loss"], enumerate(history))
    assert (tmp_path / "loss.csv").read_bytes() == expected


def test_phy_trace_csv(tmp_path):
    values = floats(np.random.default_rng(7), 70).reshape(10, 7)
    trace = [(SimpleNamespace(azimuth=a, polar=p, distance=d, intensity=n),
              SimpleNamespace(d_azimuth=da, d_polar=dp, area_ratio=r))
             for a, p, d, n, da, dp, r in values]
    cli._write_phy_trace(tmp_path / "phy.csv", trace)
    header = ["iteration", "azimuth", "polar", "distance", "intensity",
              "d_azimuth", "d_polar", "area_ratio"]
    expected = oracle(header, [[i, *map(float, row)] for i, row in enumerate(values)])
    assert (tmp_path / "phy.csv").read_bytes() == expected

"""SVG output bytes, pinned by SHA-256."""

import hashlib

import numpy as np

from advrelight.harness import sensitivity_analysis
from advrelight.shading import as_light
from advrelight.svgplot import write_hexhist_svg, write_roc_svg


def test_roc_svg_bytes_are_pinned(tmp_path):
    """Two fixed curves, one of them a strided view, give the pinned SVG bytes."""
    rng = np.random.default_rng(11)
    points = np.column_stack([np.sort(rng.uniform(0.0, 1.0, 4096)),
                              np.sort(rng.uniform(0.0, 1.0, 4096))])
    path = tmp_path / "roc.svg"
    write_roc_svg(path, [("curve AUC=0.5000", points), ("second", points[::7])])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "b9638a7afa1173ced417b19b7a99b0423c481bdb60096b0b0758ef7ffcff8ebf"


def test_hexhist_svg_bytes_are_pinned(tmp_path):
    """A histogram of 40 seeded light pairs, cells of unequal counts, gives the pinned bytes."""
    rng = np.random.default_rng(12)
    pairs = [(as_light(old), as_light(old + rng.uniform(-0.3, 0.3, 9)))
             for old in rng.normal(0.0, 0.5, (40, 9))]
    hist = sensitivity_analysis(pairs, resolution=64, cell_size=6.0)
    assert hist.counts.size > 1 and hist.counts.min() < hist.counts.max()
    path = tmp_path / "hexhist.svg"
    write_hexhist_svg(path, hist)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c98c84fdc5882e5d21ecdc9576a5e009d2036eab8b11a2c992b3df1627fde3d6"

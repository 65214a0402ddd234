"""SVG output bytes, pinned by SHA-256."""

import hashlib

import numpy as np

from advrelight.svgplot import write_roc_svg


def test_roc_svg_bytes_are_pinned(tmp_path):
    """Two fixed curves, one of them a strided view, give the pinned SVG bytes."""
    rng = np.random.default_rng(11)
    points = np.column_stack([np.sort(rng.uniform(0.0, 1.0, 4096)),
                              np.sort(rng.uniform(0.0, 1.0, 4096))])
    path = tmp_path / "roc.svg"
    write_roc_svg(path, [("curve AUC=0.5000", points), ("second", points[::7])])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "b9638a7afa1173ced417b19b7a99b0423c481bdb60096b0b0758ef7ffcff8ebf"

import numpy as np

from advrelight import corpus
from advrelight.relight import FaceImage
from advrelight.shading import shade


def reference_corpus(identities, per_identity, size, seed):
    """The corpus rendered with ``shade`` per sample, as images only."""
    images = []
    for i in range(identities):
        id_rng = np.random.default_rng([seed, i])
        ax, ay = id_rng.uniform(0.72, 0.95, size=2)
        az = id_rng.uniform(0.55, 1.0)
        normals = corpus.ellipsoid_normals(size, ax, ay, az)
        texture = corpus._texture(size, id_rng)
        tint = id_rng.uniform(0.72, 1.0, size=3)
        tint /= tint.max()
        for j in range(per_identity):
            light = corpus._render_light(np.random.default_rng([seed, i, j]))
            lum = np.clip(texture * shade(normals, light), 0.0, 1.0)
            lum[~normals.mask] = corpus._BACKGROUND
            images.append((FaceImage.from_rgb(np.clip(lum[:, :, None] * tint, 0.0, 1.0)),
                           normals))
    return images


def test_corpus_matches_per_sample_shading():
    """One SH basis per identity renders the same images as ``shade`` per sample."""
    groups = corpus.synthetic_corpus(identities=3, per_identity=5, size=40, seed=4)
    samples = [sample for group in groups for sample in group.samples]
    expected = reference_corpus(3, 5, 40, 4)
    assert len(samples) == len(expected)
    for sample, (image, normals) in zip(samples, expected):
        assert np.array_equal(sample.image.rgb, image.rgb)
        assert np.array_equal(sample.image.luminance, image.luminance)
        assert np.array_equal(sample.normals.normals, normals.normals)
        assert np.array_equal(sample.normals.mask, normals.mask)

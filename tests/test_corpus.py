import numpy as np
import pytest

from advrelight import corpus

from helpers.corpus import per_sample_corpus

_ARRAYS = ("luminance", "rgb", "chroma")

_SHAPES = [  # (identities, per_identity, size, seed)
    (corpus.DEFAULT_IDENTITIES, corpus.DEFAULT_PER_IDENTITY, corpus.DEFAULT_SIZE, 0),
    (3, 5, 40, 4), (2, 3, 33, 9), (1, 1, 8, 2), (2, 0, 16, 3),
]


def test_corpus_matches_per_sample_shading():
    """Each identity's batch renders, bit for bit, the images ``shade`` renders one at a time."""
    for shape in _SHAPES:
        groups = corpus.synthetic_corpus(*shape)
        expected = per_sample_corpus(*shape)
        assert [g.identity for g in groups] == [f"id{i:02d}" for i in range(shape[0])]
        assert [len(g.samples) for g in groups] == [shape[1]] * shape[0]
        assert [len(e) for e in expected] == [shape[1]] * shape[0]
        for sample, (image, normals) in zip((s for g in groups for s in g.samples),
                                            (pair for e in expected for pair in e)):
            for name in _ARRAYS:
                assert np.array_equal(getattr(sample.image, name), getattr(image, name)), name
            assert np.array_equal(sample.normals.normals, normals.normals)
            assert np.array_equal(sample.normals.mask, normals.mask)


def test_corpus_arrays_are_read_only():
    groups = corpus.synthetic_corpus(identities=2, per_identity=3, size=16, seed=5)
    for sample in (s for g in groups for s in g.samples):
        for array in [getattr(sample.image, name) for name in _ARRAYS] + [
                sample.normals.normals, sample.normals.mask]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0


def test_corpus_images_own_their_arrays():
    """No image holds a view of its identity's batch, which would keep the whole batch alive."""
    for sample in corpus.synthetic_corpus(identities=2, per_identity=4, size=16, seed=1)[1].samples:
        assert sample.image.rgb.base is None
        assert sample.image.luminance.base is None

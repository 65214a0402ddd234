import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from advrelight.embedder import (
    DEFAULT_DIM,
    BuiltinEmbedder,
    EmbedderDescriptor,
    ExternalEmbedder,
    cosine_similarity,
    luminance_bytes,
)
from advrelight.errors import CapabilityError, ProtocolError, ProtocolTimeoutError
from advrelight.relight import FaceImage

from helpers import resize

ENDPOINT = [sys.executable, str(Path(__file__).parent / "helpers" / "echo_embedder.py")]
BENCHMARK_ENDPOINT = [sys.executable,
                      str(Path(__file__).resolve().parents[1] / "perfbench" / "endpoint.py")]


def random_image(rng, size=40):
    return FaceImage.from_luminance(rng.uniform(0.1, 0.9, size=(size, size)))


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 80), width=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
@example(height=64, width=64, seed=0)
@example(height=48, width=80, seed=1)
@example(height=17, width=33, seed=2)
@example(height=8, width=8, seed=3)
@example(height=1, width=2, seed=4)
def test_tap_gather_equals_gather_and_row_sum(height, width, seed):
    """``embed`` and ``input_gradient`` equal the one-gather, row-sum resize bit for bit.

    Below 33 pixels on a side the edge rows or columns repeat a tap.
    """
    assume(height * width > 1)
    rng = np.random.default_rng(seed)
    lum = rng.uniform(0.0, 1.0, size=(height, width))
    upstream = rng.standard_normal(DEFAULT_DIM)
    embedder = BuiltinEmbedder()
    image = FaceImage.from_luminance(lum)
    assert np.array_equal(embedder.embed(image), resize.embed(embedder, image.luminance))
    assert np.array_equal(embedder.input_gradient(image, upstream),
                          resize.input_gradient(embedder, image.luminance, upstream))


def test_determinism_and_norm(builtin_embedder):
    rng = np.random.default_rng(0)
    image = random_image(rng)
    first = builtin_embedder.embed(image)
    second = builtin_embedder.embed(image)
    assert np.array_equal(first, second)
    assert abs(np.linalg.norm(first) - 1.0) < 1e-6


def test_unit_norm_many_images(builtin_embedder):
    rng = np.random.default_rng(1)
    for _ in range(10):
        e = builtin_embedder.embed(random_image(rng, size=int(rng.integers(16, 80))))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-6


def test_constant_image_fallback(builtin_embedder):
    image = FaceImage.from_luminance(np.full((32, 32), 0.5))
    e = builtin_embedder.embed(image)
    expected = np.zeros(builtin_embedder.descriptor.dimension)
    expected[0] = 1.0
    assert np.array_equal(e, expected)


def test_similarity_basics():
    e = np.zeros(8)
    e[3] = 1.0
    assert cosine_similarity(e, e) == 1.0
    assert cosine_similarity(e, -e) == -1.0
    other = np.zeros(8)
    other[4] = 1.0
    assert cosine_similarity(e, other) == 0.0
    assert cosine_similarity(3 * e, e) == 1.0 and cosine_similarity(-3 * e, e) == -1.0
    assert np.isnan(cosine_similarity(np.full(8, np.nan), e))
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(4), np.ones(5))


def test_similarity_symmetric_and_bounded(builtin_embedder):
    rng = np.random.default_rng(2)
    a = builtin_embedder.embed(random_image(rng))
    b = builtin_embedder.embed(random_image(rng))
    assert cosine_similarity(a, b) == cosine_similarity(b, a)
    assert -1.0 <= cosine_similarity(a, b) <= 1.0


@pytest.mark.parametrize("size", [32, 40])
def test_input_gradient_matches_fd(builtin_embedder, size):
    rng = np.random.default_rng(3)
    image = random_image(rng, size=size)
    upstream = rng.standard_normal(builtin_embedder.descriptor.dimension)
    grad = builtin_embedder.input_gradient(image, upstream)
    h = 1e-4
    checks = [(2, 3), (size // 2, size // 2), (size - 1, size - 1), (5, size - 2)]
    for i, j in checks:
        lum = image.luminance.copy()
        lum[i, j] += h
        plus = builtin_embedder.embed(FaceImage.from_luminance(lum)) @ upstream
        lum = image.luminance.copy()
        lum[i, j] -= h
        minus = builtin_embedder.embed(FaceImage.from_luminance(lum)) @ upstream
        fd = (plus - minus) / (2 * h)
        scale = max(abs(fd), np.abs(grad).max() * 1e-3)
        assert abs(grad[i, j] - fd) / scale < 1e-4


def test_input_gradient_zero_upstream(builtin_embedder):
    image = random_image(np.random.default_rng(4))
    grad = builtin_embedder.input_gradient(
        image, np.zeros(builtin_embedder.descriptor.dimension)
    )
    assert np.all(grad == 0.0)


def test_input_gradient_reuses_last_projection_exactly():
    """Embedding first (one-entry projection memo) leaves embed and gradient bit-identical."""
    rng = np.random.default_rng(15)
    a, b = random_image(rng), random_image(rng)
    upstream = rng.standard_normal(DEFAULT_DIM)
    warm = BuiltinEmbedder()
    embedded = warm.embed(a)
    assert np.array_equal(warm.input_gradient(a, upstream),
                          BuiltinEmbedder().input_gradient(a, upstream))
    assert np.array_equal(warm.embed(a), embedded)
    assert np.array_equal(warm.embed(b), BuiltinEmbedder().embed(b))
    assert np.array_equal(warm.input_gradient(a, upstream),
                          BuiltinEmbedder().input_gradient(a, upstream))


def test_input_gradient_unused_pixels(builtin_embedder):
    """Downsampling leaves source pixels between taps with zero gradient."""
    rng = np.random.default_rng(5)
    image = random_image(rng, size=128)
    upstream = rng.standard_normal(builtin_embedder.descriptor.dimension)
    grad = builtin_embedder.input_gradient(image, upstream)
    assert (grad == 0.0).sum() > 0


def test_lipschitz_constant_recorded(builtin_embedder):
    """The similarity response to luminance change is bounded; record the slope."""
    rng = np.random.default_rng(6)
    image = random_image(rng)
    base = builtin_embedder.embed(image)
    worst = 0.0
    for _ in range(10):
        delta = rng.normal(0, 0.01, size=image.luminance.shape)
        perturbed = FaceImage.from_luminance(np.clip(image.luminance + delta, 0, 1))
        sim = cosine_similarity(builtin_embedder.embed(perturbed), base)
        worst = max(worst, (1.0 - sim) / np.linalg.norm(delta))
    assert np.isfinite(worst) and worst > 0.0
    print(f"builtin embedder similarity slope <= {worst:.4f} per unit L2 change")


def test_descriptor_validation():
    with pytest.raises(ValueError):
        EmbedderDescriptor("x", 1, True)


# ---------------------------------------------------------------------------
# External endpoint adapter
# ---------------------------------------------------------------------------

def expected_echo_vector(image, dim=16):
    import base64 as b64
    import hashlib

    data = b64.b64decode(b64.b64encode(luminance_bytes(image)))
    seed = int(hashlib.sha256(data).hexdigest()[:8], 16)
    vec = np.random.default_rng(seed).standard_normal(dim)
    vec = vec / np.linalg.norm(vec)
    quantized = np.array([float(f"{v:.9g}") for v in vec])
    return quantized / np.linalg.norm(quantized)


def test_external_roundtrip():
    rng = np.random.default_rng(7)
    image = random_image(rng)
    with ExternalEmbedder(ENDPOINT) as emb:
        assert emb.descriptor.name == "echo"
        assert emb.descriptor.dimension == 16
        assert emb.descriptor.differentiable is False
        got = emb.embed(image)
        again = emb.embed(image)
    assert np.array_equal(got, expected_echo_vector(image))
    assert np.array_equal(got, again)


def test_external_renormalization_tolerance():
    image = random_image(np.random.default_rng(8))
    with ExternalEmbedder(ENDPOINT + ["--norm-scale", "1.005"]) as emb:
        vec = emb.embed(image)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    with ExternalEmbedder(ENDPOINT + ["--norm-scale", "1.2"]) as emb:
        with pytest.raises(ProtocolError):
            emb.embed(image)


def test_external_dimension_mismatch():
    image = random_image(np.random.default_rng(9))
    with ExternalEmbedder(ENDPOINT + ["--bad-dim"]) as emb:
        with pytest.raises(ProtocolError):
            emb.embed(image)


def test_external_non_numeric_value_is_a_protocol_error():
    image = random_image(np.random.default_rng(9))
    with ExternalEmbedder(ENDPOINT + ["--bad-token"]) as emb:
        with pytest.raises(ProtocolError, match="non-numeric"):
            emb.embed(image)


def test_external_bad_handshake():
    with pytest.raises(ProtocolError):
        ExternalEmbedder(ENDPOINT + ["--bad-hello"], timeout=5.0)


def test_external_timeout():
    image = random_image(np.random.default_rng(10))
    with ExternalEmbedder(ENDPOINT + ["--hang"], timeout=0.5) as emb:
        with pytest.raises(ProtocolTimeoutError, match=r"within 0\.5 s"):
            emb.embed(image)


def test_short_reply_timeout_waits_for_a_slow_handshake():
    """The per-reply timeout does not bound HELLO: an endpoint may load its model first."""
    image = random_image(np.random.default_rng(15))
    with ExternalEmbedder(ENDPOINT + ["--slow-hello", "0.5"], timeout=0.2) as emb:
        assert np.array_equal(emb.embed(image), expected_echo_vector(image))


def test_external_timeout_never_answers_a_later_request():
    """A reply that arrives after its request timed out must not answer the next one."""
    rng = np.random.default_rng(13)
    a, b = random_image(rng), random_image(rng)
    with ExternalEmbedder(ENDPOINT + ["--slow-first", "1.5"], timeout=1.0) as emb:
        with pytest.raises(ProtocolTimeoutError):
            emb.embed(a)
        time.sleep(1.0)  # a's late reply has arrived by now
        with pytest.raises(ProtocolError, match="closed"):
            emb.embed(b)
        assert emb.closed


def test_embed_many_matches_single_embeds():
    """A pipelined batch answers every image, in order, exactly as one request each."""
    rng = np.random.default_rng(16)
    images = [random_image(rng, size=64) for _ in range(20)]  # several bursts of requests
    with ExternalEmbedder(ENDPOINT) as emb:
        singles = [emb.embed(image) for image in images]
        batch = emb.embed_many(images)
        assert emb.embed_many([]) == []
    assert len(batch) == len(images)
    for got, single, image in zip(batch, singles, images):
        assert np.array_equal(got, single)
        assert np.array_equal(got, expected_echo_vector(image))


def test_embed_many_times_out_on_a_hung_endpoint():
    """18 large requests overfill a pipe, yet a hung endpoint meets the reply timeout."""
    rng = np.random.default_rng(17)
    images = [random_image(rng, size=128) for _ in range(18)]
    outcome = {}
    emb = ExternalEmbedder(ENDPOINT + ["--hang"], timeout=0.5)

    def run():
        for key, call in (("batch", lambda: emb.embed_many(images)),
                          ("later", lambda: emb.embed(images[0]))):
            try:
                call()
            except Exception as exc:
                outcome[key] = exc

    worker = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    worker.start()
    worker.join(timeout=20.0)
    elapsed = time.monotonic() - start
    hung = worker.is_alive()
    emb.close()  # ends the endpoint, which frees a write blocked on a full pipe
    assert not hung, "embed_many blocked instead of timing out"
    assert elapsed < 5.0
    assert isinstance(outcome.get("batch"), ProtocolTimeoutError)
    assert isinstance(outcome.get("later"), ProtocolError)
    assert "closed" in str(outcome["later"])


def test_benchmark_endpoint_serves_pipelined_batches():
    """``perfbench/endpoint.py`` answers a pipelined batch with the built-in embedding."""
    rng = np.random.default_rng(18)
    images = [random_image(rng, size=64) for _ in range(18)]
    with ExternalEmbedder(BENCHMARK_ENDPOINT) as emb:
        batch = emb.embed_many(images)
    builtin = BuiltinEmbedder()
    for got, image in zip(batch, images):
        served = builtin.embed(FaceImage.from_luminance(np.round(image.luminance * 255) / 255))
        # The adapter renormalizes what it reads, which can move the last bit.
        assert np.array_equal(got, served / np.linalg.norm(served))


def test_external_no_gradient():
    with ExternalEmbedder(ENDPOINT) as emb:
        with pytest.raises(CapabilityError):
            emb.input_gradient(random_image(np.random.default_rng(11)), np.zeros(16))


def test_bad_handshake_terminates_endpoint():
    """A failed handshake must not leave the endpoint process running."""
    import subprocess
    import time as _time

    script = ("import sys, time\n"
              "sys.stdout.write('NOPE\\n'); sys.stdout.flush()\n"
              "time.sleep(3600)\n")
    with pytest.raises(ProtocolError):
        ExternalEmbedder([sys.executable, "-c", script], timeout=5.0)
    # the constructor closed the child; give termination a moment
    deadline = _time.monotonic() + 5.0
    alive = True
    while _time.monotonic() < deadline:
        leftovers = subprocess.run(
            ["pgrep", "-f", "time.sleep(3600)"], capture_output=True, text=True
        ).stdout.strip()
        alive = bool(leftovers)
        if not alive:
            break
        _time.sleep(0.1)
    assert not alive

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlt import MonteCarlo, QuantizerSpec, SimConfig, SubbandPlan, WaveformConfig
from qlt._rng import complex_normal, substream
from qlt.montecarlo import SPAN_RTOL, HaarFrames


def _matmul(a, b):
    # einsum keeps these small products off the BLAS thread pool, which can
    # stall for milliseconds per call when the cores are busy
    return np.einsum("ij,jk->ik", a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_frames_give_v_as_the_sum_of_their_outer_products(n):
    # V = sum_j q_j p_j^H once the basis queries have filled both frames
    rng = substream(5, "kern-dense", n)
    chain = HaarFrames(n, rng)
    eye = np.eye(n, dtype=complex)
    applied = np.column_stack([chain.apply(eye[:, k]) for k in range(n)])
    assert len(chain.ins) == len(chain.outs) == n
    p, q = np.array(chain.ins).T, np.array(chain.outs).T
    for frame in (p, q):
        np.testing.assert_allclose(_matmul(frame.conj().T, frame), eye, rtol=0.0, atol=1e-13)
    dense = _matmul(q, p.conj().T)
    np.testing.assert_allclose(applied, dense, rtol=0.0, atol=1e-13)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(chain.apply_adjoint(chain.apply(z)), z, atol=1e-13)
    np.testing.assert_allclose(chain.apply_adjoint(z), _matmul(dense.conj().T, z[:, None])[:, 0],
                               atol=1e-13)
    # queries inside the full span add nothing
    assert len(chain.ins) == len(chain.outs) == n


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4), ()])
def test_a_query_of_the_wrong_shape_is_a_value_error_that_draws_nothing(shape):
    rng = substream(35, "query-shape")
    chain = HaarFrames(4, rng)
    state = rng.bit_generator.state
    for query in (chain.apply, chain.apply_adjoint):
        with pytest.raises(ValueError, match=r"is not \(n,\) with n = 4"):
            query(np.ones(shape, dtype=complex))
    assert rng.bit_generator.state == state
    assert chain.ins == [] and chain.outs == []


def _matrix(chain, first):
    """V from basis-vector queries, and the first query's result.

    ``first="adjoint"`` starts with V^H e_0, as a trial's modulate does, then
    reads V's columns; ``first="apply"`` starts with V e_0, then reads V^H's.
    """
    eye = np.eye(chain.n, dtype=complex)
    if first == "adjoint":
        head = chain.apply_adjoint(eye[0])
        v = np.column_stack([chain.apply(e) for e in eye])
        return v, head, v[0].conj()
    head = chain.apply(eye[0])
    v = np.column_stack([chain.apply_adjoint(e) for e in eye]).conj().T
    return v, head, v[:, 0]


def _law_failures(cls, n, first, draws):
    """Haar moments of V that miss their values by more than 4 standard errors."""
    rng = substream(31, "chain-law", n, first)
    tr = np.empty(draws, complex)
    v00 = np.empty(draws)
    for d in range(draws):
        v = _matrix(cls(n, rng), first)[0]
        tr[d] = np.trace(v)
        v00[d] = abs(v[0, 0]) ** 4
    moments = {
        "E[tr V]": (tr, 0.0),
        "E[(tr V)^2]": (tr**2, 0.0),
        "E|tr V|^2": (np.abs(tr) ** 2, 1.0),
        "E|V00|^4": (v00, 2.0 / (n * (n + 1))),
    }
    failures = []
    for name, (x, want) in moments.items():
        se = np.sqrt(np.mean(np.abs(x - x.mean()) ** 2) / draws)
        if abs(x.mean() - want) > 4.0 * se + 1e-12:
            failures.append(f"{name} = {x.mean():.4f}, want {want:.4f} (se {se:.4f})")
    return failures


def _consistency_failures(cls, n, first):
    """Ways in which a chain's answers disagree with one fixed unitary."""
    rng = substream(32, "chain-consistency", n, first)
    failures = []
    v, head, col = _matrix(cls(n, rng), first)
    if np.abs(v @ v.conj().T - np.eye(n)).max() > 1e-13:
        failures.append("basis columns are not unitary")
    if np.abs(head - col).max() > 1e-13:
        failures.append("the first query disagrees with the later columns")
    chain = cls(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = chain.apply(z)
    state = rng.bit_generator.state
    if np.abs(chain.apply_adjoint(y) - z).max() > 1e-13 * np.linalg.norm(z):
        failures.append("apply_adjoint(apply(v)) is not v")
    if np.abs(chain.apply(z) - y).max() > 1e-13 * np.linalg.norm(z):
        failures.append("re-applying v gives another image")
    if rng.bit_generator.state != state:
        failures.append("re-applying queried vectors drew from the generator")
    return failures


@pytest.mark.parametrize("first", ["adjoint", "apply"])
@pytest.mark.parametrize("n", range(1, 7))
def test_chain_has_the_haar_moments(n, first):
    assert _law_failures(HaarFrames, n, first, draws=2000) == []


@pytest.mark.parametrize("first", ["adjoint", "apply"])
@pytest.mark.parametrize("n", range(1, 7))
def test_chain_answers_as_one_unitary(n, first):
    assert _consistency_failures(HaarFrames, n, first) == []


class _Forgetful(HaarFrames):
    """Draws every query afresh, as if no earlier query had been made."""

    def _query(self, v, src, dst):
        src.clear()
        dst.clear()
        return super()._query(v, src, dst)


class _RealNormals:
    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        g[1::2] = 0.0
        return g


class _RealDraws(HaarFrames):
    """Draws real Gaussians, so each new output direction loses its uniform phase."""

    def __init__(self, n, rng):
        super().__init__(n, _RealNormals(rng))


@pytest.mark.parametrize("first", ["adjoint", "apply"])
def test_the_law_and_consistency_checks_catch_a_broken_chain(first):
    assert _consistency_failures(_Forgetful, 3, first)
    # at n = 1, V is a uniform phase and nothing else
    assert _law_failures(_RealDraws, 1, first, draws=200)


@pytest.mark.parametrize("n", [2, 64, 4096])
def test_a_remainder_within_the_span_rule_draws_nothing(n):
    # an identity DAC hands demodulate the modulated vector itself: its
    # remainder is round-off, inside SPAN_RTOL * n * |x|, and adds nothing
    rng = substream(33, "span-rule", n)
    chain = HaarFrames(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = chain.apply_adjoint(z)
    state = rng.bit_generator.state
    np.testing.assert_allclose(chain.apply(x), z, rtol=0.0, atol=1e-13 * np.linalg.norm(z))
    assert rng.bit_generator.state == state and len(chain.ins) == 1
    # a unit direction w orthogonal to x, added at half and at twice the
    # bound, draws only at twice the bound
    other = substream(34, "span-rule", n)
    w = other.standard_normal(n) + 1j * other.standard_normal(n)
    w -= x * (np.vdot(x, w) / np.vdot(x, x))
    w /= np.linalg.norm(w)
    bound = SPAN_RTOL * n * np.linalg.norm(x)
    chain.apply(x + 0.5 * bound * w)
    assert rng.bit_generator.state == state and len(chain.ins) == 1
    chain.apply(x + 2.0 * bound * w)
    assert rng.bit_generator.state != state and len(chain.ins) == 2


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_chain_is_unitary_at_every_size(n, seed):
    rng = substream(seed, "kern-unitary", n)
    chain = HaarFrames(n, rng)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = chain.apply(z)
    np.testing.assert_allclose(chain.apply_adjoint(y), z, rtol=0.0, atol=1e-10 * np.linalg.norm(z))
    assert abs(np.linalg.norm(y) - np.linalg.norm(z)) < 1e-10 * np.linalg.norm(z)


@pytest.mark.parametrize("power, shape", [
    (1.0, (160, 832)),
    (0.25, 17),
    (3.0, ()),
    (np.array([0.0, 1.0, 2.5, 1e-300, 7.0] * 40), 200),  # zero powers keep their signed zeros
    (np.linspace(0.0, 4.0, 24).reshape(4, 6), (4, 6)),
])
def test_complex_normal_is_the_scaled_sum_bytewise(power, shape):
    # one (2, *shape) draw scaled in place: the bits of the two-draw
    # expression, in a new array and in a strided view of a larger one
    got = complex_normal(substream(3, "cn"), power, shape)
    rng = substream(3, "cn")
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    want = np.sqrt(power / 2) * (a + 1j * b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    grid = np.zeros((*want.shape, 2), dtype=complex)
    view = grid[..., 0]
    assert complex_normal(substream(3, "cn"), power, shape, out=view) is view
    assert view.tobytes() == want.tobytes()
    assert not grid[..., 1].any()


@pytest.mark.parametrize("out", [
    np.empty(17, dtype=complex), np.empty((4, 5), dtype=complex), np.empty((4, 6)),
    np.empty((4, 6), dtype=np.complex64),
], ids=["1-D", "short", "float", "complex64"])
def test_complex_normal_refuses_an_out_of_another_shape_or_dtype(out):
    # refused before the generator draws: the stream is where it was
    rng = substream(3, "cn")
    with pytest.raises(ValueError, match=r"out must be a complex array of shape \(4, 6\)"):
        complex_normal(rng, 1.0, (4, 6), out=out)
    assert rng.standard_normal() == substream(3, "cn").standard_normal()


def test_a_seed_that_is_not_an_integer_is_refused():
    # a float seed was keyed by its str, so 3.0 drew another stream than 3
    plan = SubbandPlan((1.0,), (1.0,))
    dac = QuantizerSpec.uniform_midrise(1, 1.0)
    for seed in (3.0, np.float64(3.0), True, np.bool_(True), "3", None):
        with pytest.raises(TypeError, match="seed must be an integer"):
            substream(seed, "trial", 0)
        for make in (
            lambda: MonteCarlo(seed=seed),
            lambda: SimConfig(size=4, plan=plan, dac=dac, seed=seed),
            lambda: WaveformConfig(seed=seed),
        ):
            with pytest.raises(ValueError, match="seed"):
                make()
    # numpy integers key the stream of the same int
    want = substream(3, "trial", 0).standard_normal(4)
    for seed in (np.int64(3), np.uint8(3)):
        assert substream(seed, "trial", 0).standard_normal(4).tobytes() == want.tobytes()
        assert MonteCarlo(seed=seed).seed == 3


def test_a_negative_seed_is_refused():
    plan = SubbandPlan((1.0,), (1.0,))
    dac = QuantizerSpec.uniform_midrise(1, 1.0)
    for seed in (-1, np.int64(-1)):
        for make in (
            lambda: substream(seed, "trial", 0),
            lambda: MonteCarlo(seed=seed),
            lambda: SimConfig(size=4, plan=plan, dac=dac, seed=seed),
            lambda: WaveformConfig(seed=seed),
        ):
            with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
                make()


def test_a_size_no_array_can_index_is_refused_by_the_config_that_allocates_it():
    # numpy would refuse the array with a message that names no field
    plan = SubbandPlan((1.0,), (1.0,))
    dac = QuantizerSpec.uniform_midrise(1, 1.0)
    for make, message in (
        (lambda: MonteCarlo(samples=2**62), "samples 4611686018427387904"),
        (lambda: SimConfig(size=2**62, plan=plan, dac=dac, trials=2),
         "size 4611686018427387904 x trials 2"),
        (lambda: WaveformConfig(num_symbols=2**62),
         "num_symbols 4611686018427387904 x num_subcarriers 1024"),
        # the filter's transients lengthen the interpolated stream
        (lambda: WaveformConfig(num_symbols=2, filter_taps=2**62 + 1),
         "filter_taps 4611686018427387905"),
    ):
        with pytest.raises(ValueError, match=f"^{message} has more points than an array can index$"):
            make()


# the first draws of substream(seed, "trial", 0): seeds below 2**64 key
# these streams whatever the release
SEED_STREAMS = {
    0: [1.1147768010111916, -0.927265946623657, 1.3283748378642644, 0.8153158438888926],
    1: [-1.4907588055349381, 1.5652774872048125, 0.7924205529278413, -0.22832245625349917],
    2**63: [-0.12384296273397649, -0.3443087365087416, 1.660706227838045, 0.3165898600370114],
    2**64 - 1: [-0.5660436950644497, 0.6172926499777038, 0.6378084809405761, 0.5556400689155321],
}


def test_every_seed_keys_its_own_stream():
    for seed, want in SEED_STREAMS.items():
        assert substream(seed, "trial", 0).standard_normal(4).tolist() == want
    # a seed from 2**64 up is not reduced modulo 2**64 onto a smaller one
    for seed in (2**64, 2**64 + 1, 2**65 - 1, 2**100):
        got = substream(seed, "trial", 0).standard_normal(4).tolist()
        assert got != SEED_STREAMS[0] and got != SEED_STREAMS[1] and got != SEED_STREAMS[2**64 - 1]

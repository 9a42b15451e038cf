import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlt import (
    NumericalFailureError,
    QuantizerSpec,
    UnboundedConstellationError,
    constellation_of,
    quantize,
)
from qlt.quantizer import _MAP_BLOCK, _map_dim


def test_identity_passthrough():
    q = QuantizerSpec.identity()
    assert quantize(q, 0.3 - 0.7j) == 0.3 - 0.7j


def test_one_bit_is_scaled_sign():
    q = QuantizerSpec.uniform_midrise(1, 1.0)
    assert quantize(q, 0.3 - 0.7j) == 1.0 - 1.0j
    assert quantize(q, -2.0 + 0.0j) == -1.0 + 1.0j  # tie at 0 rounds up


def test_two_bit_saturation():
    # levels per dimension are {-3, -1, 1, 3}; nearest-level with clipping
    q = QuantizerSpec.uniform_midrise(2, 3.0)
    assert quantize(q, 10.0 + 0.1j) == 3.0 + 1.0j
    levels = q.levels_per_dim()
    np.testing.assert_allclose(levels, [-3.0, -1.0, 1.0, 3.0])


def _assert_nearest_level(q, clip, rng, atol):
    # brute-force oracle: levels[argmin |x - level|] on each of the real and
    # imaginary parts; a sample beyond the outer levels is nearest to the
    # outer level, so clipping x to them first keeps +-inf comparable
    levels = q.levels_per_dim()
    x = np.concatenate((
        rng.uniform(-2 * clip, 2 * clip, 4000),
        levels,
        [-10 * clip, 10 * clip, -np.inf, np.inf],
    ))
    u = np.empty(x.size, complex)
    u.real, u.imag = x, x[::-1]
    got = quantize(q, u)
    for part, xs in ((got.real, x), (got.imag, x[::-1])):
        xc = np.clip(xs, levels[0], levels[-1])
        brute = levels[np.argmin(np.abs(xc[:, None] - levels[None, :]), axis=1)]
        np.testing.assert_allclose(part, brute, rtol=0, atol=atol)


def test_midrise_levels_nearest_rule():
    rng = np.random.default_rng(0)
    for bits in range(1, 9):
        for clip in (0.3, 1.0, 2.6, 7.5):
            q = QuantizerSpec.uniform_midrise(bits, clip)
            _assert_nearest_level(q, clip, rng, atol=0.0)


@pytest.mark.parametrize(
    "levels", [(-2.0, -0.3, 0.1, 1.7), (-1.0, 1.0), (-5.0, -4.0, 0.0, 0.5, 3.0, 40.0)]
)
def test_custom_levels_nearest_rule(levels):
    q = QuantizerSpec.custom_levels(levels)
    _assert_nearest_level(q, max(abs(v) for v in levels), np.random.default_rng(1), atol=0.0)
    # a sample exactly on a threshold maps to the upper level
    thr = q.thresholds_per_dim()
    np.testing.assert_array_equal(quantize(q, thr + 1j * thr), np.array(levels[1:]) * (1 + 1j))


def test_constellation_one_bit(product_constellation):
    c = constellation_of(QuantizerSpec.uniform_midrise(1, 1.0))
    assert c.size == 4
    np.testing.assert_allclose(sorted(product_constellation(c.levels_per_dim())[1]), [2.0] * 4)


def test_constellation_two_bit_energies(product_constellation):
    c = constellation_of(QuantizerSpec.uniform_midrise(2, 3.0))
    assert c.size == 16
    # direct enumeration oracle over {+-1, +-3}^2
    oracle = sorted(a * a + b * b for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3))
    assert sorted(product_constellation(c.levels_per_dim())[1]) == oracle
    assert c.mean_energy == pytest.approx(10.0)
    assert c.min_energy <= c.mean_energy <= c.max_energy


def test_constellation_degenerate_single_level():
    c = constellation_of(QuantizerSpec.custom_levels([0.0]))
    assert c.size == 1
    assert c.min_energy == c.max_energy == 0.0


def test_identity_has_no_constellation():
    with pytest.raises(UnboundedConstellationError):
        constellation_of(QuantizerSpec.identity())


_QUANTIZERS = st.one_of(
    st.builds(QuantizerSpec.uniform_midrise, st.integers(1, 8), st.floats(0.05, 8.0)),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8, unique=True)
    .map(sorted)
    .map(QuantizerSpec.custom_levels),
)


@pytest.mark.parametrize(
    "q",
    [
        QuantizerSpec.uniform_midrise(1, 1.0),
        QuantizerSpec.uniform_midrise(3, 2.6),
        QuantizerSpec.custom_levels([-2.0, -0.3, 0.1, 1.7]),
    ],
)
def test_idempotence_and_symmetry(q, product_constellation):
    _check_idempotence_and_symmetry(q, 2.0, 7, product_constellation)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(q=_QUANTIZERS, scale=st.floats(0.05, 8.0), seed=st.integers(0, 2**32 - 1))
def test_idempotence_and_symmetry_over_generated_quantizers(q, scale, seed, product_constellation):
    _check_idempotence_and_symmetry(q, scale, seed, product_constellation)


def _check_idempotence_and_symmetry(q, scale, seed, product_constellation):
    rng = np.random.default_rng(seed)
    u = scale * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
    once = quantize(q, u)
    np.testing.assert_array_equal(quantize(q, once), once)
    assert set(once.tolist()) <= set(product_constellation(q.levels_per_dim())[0].tolist())
    if q.kind == "uniform_midrise":
        # a sample on a threshold may round either way (the tie rule in the
        # module docstring), so symmetry holds only away from them
        thr = q.thresholds_per_dim()
        far = np.ones(u.size, bool)
        for part in (u.real, u.imag):
            far &= np.abs(part[:, None] - thr).min(axis=1) > 1e-9 * q.clip
        np.testing.assert_array_equal(quantize(q, -u[far]), -once[far])
        np.testing.assert_array_equal(quantize(q, u[far].conj()), once[far].conj())


def test_boundedness():
    q = QuantizerSpec.uniform_midrise(4, 1.3)
    rng = np.random.default_rng(3)
    u = 100 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    out = np.asarray(quantize(q, u))
    assert np.abs(out.real).max() <= 1.3 + 1e-15
    assert np.abs(out.imag).max() <= 1.3 + 1e-15


@pytest.mark.parametrize("bits,clip", [(1, 1.0), (2, 3.0), (3, 2.6), (4, 3.0), (5, 0.7)])
def test_constellation_is_image_of_quantize(bits, clip, product_constellation):
    q = QuantizerSpec.uniform_midrise(bits, clip)
    grid = np.linspace(-2 * clip, 2 * clip, 257)
    pts = (grid[:, None] + 1j * grid[None, :]).ravel()
    image = set(product_constellation(constellation_of(q).levels_per_dim())[0].tolist())
    assert set(quantize(q, pts).tolist()) == image


def test_duplicate_levels_rejected():
    with pytest.raises(ValueError):
        QuantizerSpec.custom_levels([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        QuantizerSpec.custom_levels([1.0, -1.0])


def test_levels_spanning_more_than_the_float_range_are_accepted():
    # their difference overflows; the order check compares without one
    q = QuantizerSpec.custom_levels([-1.7e308, 1.7e308])
    assert q.levels_per_dim().tolist() == [-1.7e308, 1.7e308]
    with pytest.raises(ValueError, match="strictly increasing"):
        QuantizerSpec.custom_levels([1.7e308, -1.7e308])


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        QuantizerSpec.uniform_midrise(0, 1.0)
    with pytest.raises(ValueError):
        QuantizerSpec.uniform_midrise(3, -1.0)
    with pytest.raises(ValueError):
        QuantizerSpec.custom_levels([])


@pytest.mark.parametrize(
    "spec",
    [QuantizerSpec.uniform_midrise(2, 3.0), QuantizerSpec.custom_levels([-2.0, -0.5, 1.0])],
    ids=["uniform_midrise", "custom_levels"],
)
def test_nan_input_is_a_numerical_failure(spec):
    for u in (complex(np.nan, np.inf), complex(0.2, np.nan)):
        with pytest.raises(NumericalFailureError):
            quantize(spec, u)
    with pytest.raises(NumericalFailureError):
        quantize(spec, np.array([[0.1 + 0.2j, 1.0], [complex(np.nan, 0.0), -1.0]]))
    # +-inf still maps to the extreme levels
    lv = spec.levels_per_dim()
    assert quantize(spec, complex(np.inf, -np.inf)) == complex(lv[-1], lv[0])
    out = quantize(spec, np.array([complex(-np.inf, 0.3), complex(0.3, np.inf)]))
    assert out[0].real == lv[0] and out[1].imag == lv[-1]


def test_constellation_arrays_are_read_only():
    given = np.array([-3.0, -1.0, 1.0])
    cset = QuantizerSpec.custom_levels(given)
    for arr in (cset.levels_per_dim(), *cset.energy_classes):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the constellation holds a copy, so the caller's array stays writeable
    given[0] = 5.0
    assert cset.levels_per_dim()[0] == -3.0
    # one rail's energy classes: l^2 = 1 twice and 9 once
    energies, counts, weighted = cset.energy_classes
    assert (energies.tolist(), counts.tolist(), weighted.tolist()) == ([1.0, 9.0], [2.0, 1.0], [2.0, 9.0])
    assert (cset.size, cset.min_energy, cset.max_energy) == (9, 2.0, 18.0)


def test_constellation_equality_and_hash_do_not_raise():
    # an ndarray field once made == raise ValueError and hash() TypeError;
    # a constellation is its spec, and specs compare and hash by value
    a = constellation_of(QuantizerSpec.uniform_midrise(3, 2.6))
    b = constellation_of(QuantizerSpec.uniform_midrise(3, 2.6))
    assert a == b and a is not b and a != "a constellation"
    assert a != constellation_of(QuantizerSpec.uniform_midrise(3, 2.5))
    assert {a: "bound"}[b] == "bound" and len({a, b}) == 1


def test_a_spec_builds_its_level_table_once():
    for q in (QuantizerSpec.uniform_midrise(16, 2.6), QuantizerSpec.custom_levels([-2.0, 0.1, 1.7])):
        lv, thr = q.levels_per_dim(), q.thresholds_per_dim()
        assert q.levels_per_dim() is lv and q.thresholds_per_dim() is thr
        for arr in (lv, thr):
            with pytest.raises(ValueError):
                arr[0] = 0
    # the cached tables are not fields: equal specs stay equal and hash equal
    a, b = QuantizerSpec.uniform_midrise(4, 1.0), QuantizerSpec.uniform_midrise(4, 1.0)
    a.levels_per_dim()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("bits, clip", [(1, 1e308), (2, 1e308), (16, 1e304), (4, float("inf"))],
                         ids=["step", "levels", "levels-16-bit", "inf"])
def test_a_midrise_clip_past_the_float_range_is_rejected(bits, clip):
    # 2 * clip or clip * (2**bits - 1) overflows: the map would have no step
    # to round by, or the level table would hold +-inf
    with pytest.raises(ValueError, match="past the float range"):
        QuantizerSpec.uniform_midrise(bits, clip)


def test_a_subnormal_midrise_clip_with_distinct_levels_is_a_quantizer():
    for bits, clip in ((1, 5e-324), (3, 3e-323), (16, 2e-319)):
        q = QuantizerSpec.uniform_midrise(bits, clip)
        assert np.all(np.diff(q.levels_per_dim()) > 0)
        assert quantize(q, complex(1.0, -1.0)) == complex(clip, -clip)


def test_the_largest_midrise_clip_has_finite_levels():
    for bits in (1, 2, 16):
        clip = np.nextafter(np.finfo(float).max / max(2, 2**bits - 1), 0.0)
        q = QuantizerSpec.uniform_midrise(bits, clip)
        assert np.isfinite(q.levels_per_dim()).all() and np.isfinite(q.thresholds_per_dim()).all()
        assert quantize(q, complex(np.inf, -1.7e308)) == complex(q.levels_per_dim()[-1], q.levels_per_dim()[0])


def test_a_sample_far_beyond_a_tiny_step_maps_to_an_extreme_level():
    # (x + clip) / step overflows to +-inf; the index clip takes it, with no
    # overflow warning (an error under the suite's filter)
    q = QuantizerSpec.uniform_midrise(1, 1e-300)
    u = np.array([complex(1e20, -1e20), complex(1.7e308, -1.7e308), complex(5e-324, -0.0)])
    assert quantize(q, u).tolist() == [complex(1e-300, -1e-300)] * 2 + [complex(1e-300, 1e-300)]


def _two_rail_quantize(spec, u):
    """Each rail quantized on its own copy, then reassembled as re + 1j*im."""
    flat = np.asarray(u, dtype=complex).ravel()
    re, im = (_whole_map(spec, np.ascontiguousarray(rail)) for rail in (flat.real, flat.imag))
    return re + 1j * im


def _whole_map(spec, x):
    """``_map_dim`` over all of the 1-D ``x`` in one block, into new arrays."""
    return _map_dim(spec, x, np.empty(x.size))


@pytest.mark.parametrize(
    "spec",
    [QuantizerSpec.uniform_midrise(3, 1.7), QuantizerSpec.custom_levels([-1.5, -0.2, 0.0, 0.7, 2.0])],
    ids=["uniform_midrise", "custom_levels"],
)
def test_interleaved_quantize_matches_two_rails_bytewise(spec):
    rng = np.random.default_rng(4)
    random = 1.5 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    edges = np.concatenate((spec.thresholds_per_dim(), spec.levels_per_dim(), [np.inf, -np.inf]))
    # every pair of edge values, set rail by rail (1j * inf would put a NaN
    # on the real rail)
    grid = np.empty((edges.size, edges.size), dtype=complex)
    grid.real = edges[:, None]
    grid.imag = edges[None, :]
    for u in (random, grid, random.reshape(64, 64).T):
        got = quantize(spec, u)
        assert got.shape == u.shape
        assert got.tobytes() == _two_rail_quantize(spec, u).tobytes()


def test_midpoints_of_levels_near_the_float_range_stay_finite():
    # (a + b) / 2 overflows for two levels whose sum passes the float range;
    # a / 2 + b / 2 does not (a warning is an error here)
    q = QuantizerSpec.custom_levels([1e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q.thresholds_per_dim().tolist() == [1e308 / 2 + 1.7e308 / 2]
        assert quantize(q, complex(1.6e308, 1.2e308)) == complex(1.7e308, 1e308)


@pytest.mark.parametrize("spec", [
    QuantizerSpec.uniform_midrise(4, 1.3),
    QuantizerSpec.custom_levels([-1.5, -0.2, 0.0, 0.7, 2.0]),
], ids=["uniform_midrise", "custom_levels"])
def test_blocked_quantize_matches_one_whole_map(spec):
    # streams that end inside a block, on a block edge and past several
    # blocks map to the bytes of one whole-array map
    rng = np.random.default_rng(11)
    for n in (1, _MAP_BLOCK // 2 - 1, _MAP_BLOCK // 2, 3 * _MAP_BLOCK + 5):
        u = 1.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = _whole_map(spec, u.view(float)).view(complex)
        assert quantize(spec, u).tobytes() == want.tobytes()
    # a NaN in the last block is found too
    u[-1] = complex(0.0, np.nan)
    with pytest.raises(NumericalFailureError, match="NaN"):
        quantize(spec, u)


@pytest.mark.parametrize("spec", [
    QuantizerSpec.uniform_midrise(3, 1.7),
    QuantizerSpec.custom_levels([-1.5, -0.2, 0.0, 0.7, 2.0]),
], ids=["uniform_midrise", "custom_levels"])
def test_quantize_in_place_matches_a_fresh_output(spec):
    # out=u overwrites each block with its levels after its indices are
    # taken: random samples over several blocks, and every pair of
    # threshold, level and +-inf values
    rng = np.random.default_rng(12)
    random = 1.5 * (rng.standard_normal(3 * _MAP_BLOCK + 5) + 1j * rng.standard_normal(3 * _MAP_BLOCK + 5))
    edges = np.concatenate((spec.thresholds_per_dim(), spec.levels_per_dim(), [np.inf, -np.inf]))
    grid = np.empty((edges.size, edges.size), dtype=complex)
    grid.real = edges[:, None]
    grid.imag = edges[None, :]
    for u in (random.copy(), grid):
        want = quantize(spec, u)
        got = quantize(spec, u, out=u)
        assert got is u and u.tobytes() == want.tobytes()
    buf = np.empty_like(random)
    assert quantize(spec, random, out=buf) is buf
    u = random.copy()
    u[-1] = complex(np.nan, 0.0)
    with pytest.raises(NumericalFailureError, match="NaN"):
        quantize(spec, u, out=u)
    with pytest.raises(ValueError, match="C-contiguous complex"):
        quantize(spec, grid, out=np.empty_like(grid).T)


@pytest.mark.parametrize("spec", [
    QuantizerSpec.uniform_midrise(4, 2.0),
    QuantizerSpec.custom_levels([-1.5, -0.2, 0.0, 0.7, 2.0]),
], ids=["uniform_midrise", "custom_levels"])
def test_in_place_quantize_holds_no_stream_sized_temporary(spec):
    # a block's temporaries are numpy's own: a float and an index array
    # for the midrise map, an index array for the search, each 256 KB;
    # 518 KB and 257 KB measured on a 2**20-sample (16 MB) stream
    rng = np.random.default_rng(8)
    u = 1.5 * (rng.standard_normal(2**20) + 1j * rng.standard_normal(2**20))
    tracemalloc.start()
    try:
        quantize(spec, u, out=u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**18


def test_the_identity_quantizer_writes_out_unchanged():
    q = QuantizerSpec.identity()
    u = np.array([0.3 - 0.7j, complex(np.nan, np.inf)])
    assert quantize(q, u, out=u) is u
    out = np.zeros_like(u)
    assert quantize(q, u, out=out) is out and out.tobytes() == u.tobytes()


@pytest.mark.parametrize("call, error, message", [
    (lambda: QuantizerSpec("identity", bits=3), ValueError, "identity quantizer takes no bits"),
    # a field the kind does not take, which equality and hashing would read
    (lambda: QuantizerSpec("uniform_midrise", bits=2, clip=1.0, levels=(5.0,)), ValueError,
     "uniform_midrise quantizer takes no levels"),
    (lambda: QuantizerSpec("custom_levels", bits=3, clip=2.0, levels=(1.0, 2.0)), ValueError,
     "custom_levels quantizer takes no bits"),
    # midrise bits are an int in 1..MAX_BITS
    (lambda: QuantizerSpec.uniform_midrise(3.0, 1.0), ValueError, r"^bits must be of type integer, not 3\.0$"),
    (lambda: QuantizerSpec.uniform_midrise(np.int64(3), 1.0), ValueError, "bits must be of type integer"),
    (lambda: QuantizerSpec.uniform_midrise(True, 1.0), ValueError, "bits must be of type integer"),
    (lambda: QuantizerSpec.uniform_midrise(17, 1.0), ValueError, r"^bits must be in \[1, 16\], not 17$"),
    (lambda: QuantizerSpec.uniform_midrise(0, 1.0), ValueError, r"^bits must be in \[1, 16\], not 0$"),
    # a midrise clip is a positive number
    (lambda: QuantizerSpec("uniform_midrise", bits=3, clip=0.0), ValueError, r"^clip must be > 0, not 0\.0$"),
    (lambda: QuantizerSpec("uniform_midrise", bits=3, clip=-1.0), ValueError, r"^clip must be > 0, not -1\.0$"),
    (lambda: QuantizerSpec("uniform_midrise", bits=3, clip=math.nan), ValueError, r"^clip must be > 0, not nan$"),
    (lambda: QuantizerSpec("uniform_midrise", bits=3), ValueError, r"^clip must be of type number, not None$"),
    (lambda: QuantizerSpec.custom_levels([0.0, np.inf]), ValueError, "levels must be finite"),
    (lambda: QuantizerSpec("lloyd_max"), ValueError, "unknown quantizer kind"),
    (lambda: QuantizerSpec.identity().levels_per_dim(), UnboundedConstellationError, "no finite level set"),
    (lambda: QuantizerSpec.custom_levels([]), ValueError, "custom_levels requires a non-empty 1-D level list"),
    (lambda: QuantizerSpec.custom_levels([-1.0, 0.5, 0.5]), ValueError, "strictly increasing"),
    # a level set that is not 1-D, through the factory or the constructor
    (lambda: QuantizerSpec.custom_levels([[-1.0, 1.0]]), ValueError, "custom_levels requires a non-empty 1-D"),
    (lambda: QuantizerSpec.custom_levels(np.array([[-1.0, 0.0], [0.5, 1.0]])), ValueError,
     "custom_levels requires a non-empty 1-D"),
    (lambda: QuantizerSpec.custom_levels(np.float64(0.5)), ValueError, "custom_levels requires a non-empty 1-D"),
    (lambda: QuantizerSpec("custom_levels", levels=((-1.0, 0.0), (0.5, 1.0))), ValueError,
     "custom_levels requires a non-empty 1-D"),
    # numpy's own message for a ragged list names no field
    (lambda: QuantizerSpec.custom_levels([[0.0], [1.0, 2.0]]), ValueError,
     "custom_levels requires a non-empty 1-D level list"),
    # subnormal levels that round together; a step of 0 would divide the map
    (lambda: QuantizerSpec.uniform_midrise(3, 5e-324), ValueError, "step below float resolution"),
    (lambda: QuantizerSpec.uniform_midrise(16, 1.5e-319), ValueError, "step below float resolution"),
], ids=["identity_with_bits", "midrise_with_levels", "custom_levels_with_bits_and_clip", "float_bits",
        "numpy_int_bits", "bool_bits", "bits_past_16", "zero_bits", "zero_clip", "negative_clip",
        "nan_clip", "no_clip", "non_finite_level", "unknown_kind",
        "identity_levels", "no_points", "repeated_point", "nested_list_levels", "2d_array_levels",
        "0d_levels", "constructor_2d_levels", "ragged_levels", "subnormal_step_3_bit",
        "subnormal_step_16_bit"])
def test_an_invalid_quantizer_or_constellation_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()

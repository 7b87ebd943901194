import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htclip._util import as_vector, row_norms


def _reference(a):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.add.reduce(a * a, axis=-1))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# magnitudes from 1e-300 to 1e300, so squares underflow and overflow,
# plus signed zeros, infinities and nan
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.builds(
        lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 299)
    ),
)


@st.composite
def _values(draw, shape):
    """Drawn entries, or seeded normals of one scale: entries of like
    magnitude, whose sums of squares round differently in another order."""
    if draw(st.booleans()):
        return draw(arrays(np.float64, shape, elements=_ENTRY, fill=st.nothing()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(shape) * 10.0 ** draw(st.integers(-150, 150))


@st.composite
def _inputs(draw):
    """A 1-, 2- or 3-D array of last axis d = 1..7, laid out C, F or strided."""
    d = draw(st.integers(1, 7))
    lead = draw(st.lists(st.integers(0, 5), min_size=0, max_size=2))
    layout = draw(st.sampled_from(["C", "F", "rows", "cols"]))
    if layout == "rows":
        lead = lead or [3]
        return draw(_values((*lead[:-1], 2 * lead[-1], d)))[..., ::2, :]
    if layout == "cols":
        return draw(_values((*lead, 2 * d)))[..., ::2]
    a = draw(_values((*lead, d)))
    return np.asfortranarray(a) if layout == "F" else a


class TestRowNorms:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(a=_inputs())
    def test_bits_equal_add_reduce(self, a):
        with np.errstate(over="ignore", invalid="ignore"):
            got = row_norms(a)
        want = _reference(a)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=st.tuples(st.integers(1, 6), st.integers(1, 7)).flatmap(_values))
    def test_row_alone_equals_row_in_batch(self, a):
        with np.errstate(over="ignore", invalid="ignore"):
            batch = row_norms(a)
            alone = [row_norms(row) for row in a]
        assert np.array_equal(_bits(batch), _bits(np.array(alone)))

    def test_wide_rows_keep_add_reduce_order(self):
        # from 8 entries numpy sums with interleaved accumulators; the
        # left-to-right order differs on some of these rows, and
        # row_norms must keep numpy's
        a = np.random.default_rng(0).standard_normal((200, 12))
        a *= 10.0 ** np.random.default_rng(1).integers(-8, 8, a.shape)
        sq = a * a
        ltr = sq[:, 0].copy()
        for j in range(1, 12):
            ltr += sq[:, j]
        assert not np.array_equal(ltr, np.add.reduce(sq, axis=-1))
        assert np.array_equal(_bits(row_norms(a)), _bits(_reference(a)))


def test_as_vector_makes_a_scalar_one_entry():
    v = as_vector(2.0)
    assert v.dtype == np.float64 and v.shape == (1,) and v[0] == 2.0

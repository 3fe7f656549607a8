import numpy as np
import pytest

from ukklattice import (
    DimensionMismatch,
    LatticeVector,
    LqNorm,
    absolute,
    check_inf_chain,
    disjoint_residuals,
    is_disjoint,
    join,
    measure_separation,
    meet,
    neg_part,
    pos_part,
    renorm_batch,
    restrict,
    truncate,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_construction_and_immutability():
    v = LatticeVector([1.0, -2.0, 0.0])
    assert v.dim == 3
    assert v.to_list() == [1.0, -2.0, 0.0]
    with pytest.raises(ValueError):
        v.coords[0] = 5.0


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        LatticeVector([])
    with pytest.raises(ValueError):
        LatticeVector([float("nan")])
    with pytest.raises(ValueError):
        LatticeVector([float("inf"), 0.0])
    with pytest.raises(ValueError):
        LatticeVector([[1.0, 2.0]])


def test_zeros_and_unit():
    z = LatticeVector.zeros(4)
    assert z.to_list() == [0.0, 0.0, 0.0, 0.0]
    e = LatticeVector.unit(4, 2)
    assert e.to_list() == [0.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        LatticeVector.unit(2, 5)
    # zeros goes through the constructor, which needs at least one atom
    with pytest.raises(ValueError, match="at least one atom"):
        LatticeVector.zeros(0)


# numpy read a bool atom as a mask (unit(5, True) was all ones) and a float atom raised IndexError
@pytest.mark.parametrize("atom", [True, np.True_, 1.5])
def test_unit_atom_must_be_an_integer(atom):
    with pytest.raises(ValueError, match="^atom must be an integer"):
        LatticeVector.unit(5, atom)


# a string or bool height or scalar used to run as a number
@pytest.mark.parametrize("call", [
    lambda: LatticeVector.unit(4, 0, "0.5"),
    lambda: LatticeVector([1, 0]) * "2",
    lambda: LatticeVector([1, 0]) * True,
])
def test_heights_and_scalars_must_be_numbers(call):
    with pytest.raises(ValueError, match="must be a number"):
        call()


def test_numpy_sizes_atoms_and_scalars_are_accepted():
    assert LatticeVector.unit(np.int64(3), np.int32(1), np.float64(0.5)).to_list() == [0.0, 0.5, 0.0]
    assert LatticeVector.zeros(np.int64(2)).to_list() == [0.0, 0.0]
    assert (LatticeVector([1, 0]) * np.float64(2)).to_list() == [2.0, 0.0]


def test_arithmetic_and_dim_guard():
    x = LatticeVector([1.0, 2.0])
    y = LatticeVector([0.5, -1.0])
    assert (x + y).to_list() == [1.5, 1.0]
    assert (x - y).to_list() == [0.5, 3.0]
    assert (2.0 * x).to_list() == [2.0, 4.0]
    assert (-x).to_list() == [-1.0, -2.0]
    with pytest.raises(DimensionMismatch):
        x + LatticeVector([1.0, 2.0, 3.0])


def test_pos_neg_abs_decomposition():
    x = LatticeVector([3.0, -4.0, 0.0, 1.5])
    assert (pos_part(x) - neg_part(x)).to_list() == x.to_list()
    assert absolute(x).to_list() == [3.0, 4.0, 0.0, 1.5]
    # parts are disjoint by construction
    assert is_disjoint(pos_part(x), neg_part(x))


def test_meet_join_componentwise():
    x = LatticeVector([1.0, -2.0, 5.0])
    y = LatticeVector([0.0, -1.0, 7.0])
    assert meet(x, y).to_list() == [0.0, -2.0, 5.0]
    assert join(x, y).to_list() == [1.0, -1.0, 7.0]


def test_disjointness_is_exact():
    x = LatticeVector([1e-300, 0.0])
    y = LatticeVector([0.0, 1e-300])
    assert is_disjoint(x, y)
    assert not is_disjoint(x, x)


def test_truncate_clamps_to_envelope():
    # first argument supplies the envelope, second is the one clamped
    u = LatticeVector([1.0, -2.0, 4.0])
    x = LatticeVector([3.0, -3.0, 0.5])
    assert truncate(u, x).to_list() == [1.0, -2.0, 0.5]
    assert truncate(x, u).to_list() == [1.0, -2.0, 0.5]
    y = LatticeVector([0.0, 5.0, -1.0])
    assert truncate(u, y).to_list() == [0.0, 2.0, -1.0]


def test_truncate_identity_and_zero():
    x = LatticeVector([2.0, -7.0, 0.0])
    assert truncate(x, x).to_list() == x.to_list()
    z = LatticeVector.zeros(3)
    assert truncate(x, z).to_list() == z.to_list()
    assert truncate(z, x).to_list() == z.to_list()


def test_residuals_disjoint_on_overlap():
    x = LatticeVector([2.0, 1.0, 0.0])
    y = LatticeVector([1.0, 3.0, -1.0])
    rx, ry = disjoint_residuals(x, y)
    assert is_disjoint(rx, ry)
    # abs of residual never exceeds abs of the original
    assert np.all(np.abs(rx.coords) <= np.abs(x.coords))
    assert np.all(np.abs(ry.coords) <= np.abs(y.coords))


def test_residuals_of_disjoint_pair_are_the_pair():
    x = LatticeVector([1.0, 0.0, 0.0])
    y = LatticeVector([0.0, 0.0, -2.0])
    rx, ry = disjoint_residuals(x, y)
    assert rx.to_list() == x.to_list()
    assert ry.to_list() == y.to_list()


def test_restrict():
    x = LatticeVector([1.0, 2.0, 3.0, 4.0])
    assert restrict(x, [0, 2]).to_list() == [1.0, 0.0, 3.0, 0.0]
    assert restrict(x, []).to_list() == [0.0, 0.0, 0.0, 0.0]
    assert restrict(x, np.array([3], dtype=np.int64)).to_list() == [0.0, 0.0, 0.0, 4.0]


# int(1.5) and int(True) used to keep atom 1
@pytest.mark.parametrize("atom", [1.5, True])
def test_restrict_atoms_must_be_integers(atom):
    with pytest.raises(ValueError, match="^block atom must be an integer"):
        restrict(LatticeVector([1.0, 2.0, 3.0]), [atom])


@pytest.mark.parametrize("call", [
    lambda N: renorm_batch(N, 2.0, None),
    lambda N: measure_separation(5, N, 2.0),
    lambda N: check_inf_chain(N, 1.4, 5),
], ids=["renorm_batch None", "measure_separation 5", "check_inf_chain 5"])
def test_row_gate_rejects_non_iterables(call):
    # the row gate's iteration used to raise TypeError
    with pytest.raises(DimensionMismatch, match="expected rows of 4 coordinates, got "):
        call(LqNorm(2, 4))


def test_support():
    x = LatticeVector([0.0, 1.0, 0.0, -2.0])
    assert x.support() == (1, 3)


if HAVE_HYPOTHESIS:
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    vecs = st.lists(finite, min_size=1, max_size=8).map(LatticeVector)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lattice_identities(data):
        x = data.draw(vecs)
        y = LatticeVector(data.draw(
            st.lists(finite, min_size=x.dim, max_size=x.dim)))
        m, j = meet(x, y), join(x, y)
        assert (m + j).to_list() == (x + y).to_list()
        assert np.all(m.coords <= j.coords)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_residuals_always_disjoint(data):
        x = data.draw(vecs)
        y = LatticeVector(data.draw(
            st.lists(finite, min_size=x.dim, max_size=x.dim)))
        rx, ry = disjoint_residuals(x, y)
        assert is_disjoint(rx, ry)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_grows(data):
        u = data.draw(vecs)
        x = LatticeVector(data.draw(
            st.lists(finite, min_size=u.dim, max_size=u.dim)))
        t = truncate(u, x)
        assert np.all(np.abs(t.coords) <= np.abs(x.coords))
        assert np.all(np.abs(t.coords) <= np.abs(u.coords))
        # truncation preserves the sign of the clamped vector
        assert np.all(t.coords * x.coords >= 0.0)
        # and agrees with the lattice form
        lattice_form = meet(pos_part(x), absolute(u)) - meet(neg_part(x), absolute(u))
        assert t.to_list() == lattice_form.to_list()

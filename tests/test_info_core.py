"""Unit tests for the discrete information measures.

Hand-computed oracle values are frozen as literals; property-style
checks use hypothesis to fuzz distribution shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confbc.info_core import (
    JointPmf,
    binary_entropy,
    compose_joint,
    entropy,
    mutual_information,
    xlog2x,
)
from confbc.channels import DmBroadcastChannel

# frozen by hand: -0.2*log2(0.2) - 0.8*log2(0.8)
H_POINT2 = 0.7219280948873623


def test_binary_entropy_endpoints_and_known_value():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.2) == pytest.approx(H_POINT2, abs=1e-15)
    # symmetry
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)


def test_xlog2x_zero_convention():
    out = xlog2x([0.0, 0.5, 1.0])
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-0.5)
    assert out[2] == 0.0


@given(vals=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0),
                               st.floats(5e-324, 1e-300)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_xlog2x_matches_definition(vals):
    p = np.array(vals, dtype=float)
    out = xlog2x(p)
    assert out.shape == p.shape
    pos = p > 0
    assert np.array_equal(out[pos], p[pos] * np.log2(p[pos]))
    assert np.all(out[~pos] == 0.0)


def test_xlog2x_scalars():
    assert np.ndim(xlog2x(0.25)) == 0
    assert xlog2x(0.25) == -0.5
    assert xlog2x(0.0) == 0.0
    assert xlog2x(-0.5) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_pmf_entropy_uniform():
    p = JointPmf(("X",), np.full(8, 1 / 8))
    assert entropy(p) == pytest.approx(3.0, abs=1e-12)
    assert p.table.shape == (8,)


def test_pmf_rejects_bad_mass():
    with pytest.raises(ValueError):
        JointPmf(("X",), [0.5, 0.6])
    with pytest.raises(ValueError):
        JointPmf(("X",), [1.1, -0.1])
    with pytest.raises(ValueError):
        JointPmf(("X",), [[0.5, 0.5]])                   # one name, two axes


def test_joint_pmf_shape_checks():
    with pytest.raises(ValueError):
        JointPmf(("A",), np.full((2, 2), 0.25))          # name count mismatch
    with pytest.raises(ValueError):
        JointPmf(("A", "A"), np.full((2, 2), 0.25))      # duplicate names
    flat = np.full(10 ** 7 + 10, 0.0)
    flat[0] = 1.0
    with pytest.raises(ValueError):
        JointPmf(("A",), flat)                            # over the cell cap


def test_bsc_mutual_information_frozen():
    # X ~ uniform through a BSC(0.2): I(X;Y) = 1 - h(0.2)
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    p = JointPmf(("X", "Y"), table)
    want = 1.0 - H_POINT2  # = 0.2780719051126377
    assert mutual_information(p, ("X",), ("Y",)) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.2780719051126377, abs=1e-16)


def test_independent_pair_has_zero_mi():
    table = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
    p = JointPmf(("X", "Y"), table)
    assert mutual_information(p, ("X",), ("Y",)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_rejects_overlap():
    p = JointPmf(("X", "Y"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        mutual_information(p, ("X",), ("X", "Y"))


def test_conditional_entropy_chain():
    # H(A, B) = H(A) + H(B | A), with H(B | A) = H(B) - I(A; B)
    rng = np.random.default_rng(7)
    t = rng.dirichlet(np.ones(12)).reshape(3, 4)
    p = JointPmf(("A", "B"), t)
    lhs = entropy(p)
    h_b_given_a = entropy(p, ("B",)) - mutual_information(p, ("A",), ("B",))
    rhs = entropy(p.marginal(("A",))) + h_b_given_a
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_marginal_order_follows_request():
    t = np.arange(1, 9, dtype=float).reshape(2, 2, 2)
    t /= t.sum()
    p = JointPmf(("A", "B", "C"), t)
    m_ab = p.marginal(("A", "B")).table
    m_ba = p.marginal(("B", "A")).table
    assert np.allclose(m_ab, m_ba.T)


# ---------------------------------------------------------------------------
# property-style checks
# ---------------------------------------------------------------------------

def _random_joint(seed, shape):
    rng = np.random.default_rng(seed)
    t = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return JointPmf(tuple("ABCD"[: len(shape)]), t)


@given(seed=st.integers(0, 2 ** 31), na=st.integers(2, 4), nb=st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_mi_nonnegative_property(seed, na, nb):
    p = _random_joint(seed, (na, nb))
    assert mutual_information(p, ("A",), ("B",)) >= -1e-12


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_chain_rule_property(seed):
    # I(A;B,C) = I(A;B) + I(A;C|B)
    p = _random_joint(seed, (2, 3, 2))
    whole = mutual_information(p, ("A",), ("B", "C"))
    parts = mutual_information(p, ("A",), ("B",)) + mutual_information(
        p, ("A",), ("C",), given=("B",))
    assert abs(whole - parts) <= 1e-10


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_data_processing_property(seed):
    # build a Markov chain A -> B -> C and check I(A;C) <= I(A;B)
    rng = np.random.default_rng(seed)
    pa = rng.dirichlet(np.ones(3))
    b_given_a = rng.dirichlet(np.ones(3), size=3)
    c_given_b = rng.dirichlet(np.ones(3), size=3)
    t = np.einsum("a,ab,bc->abc", pa, b_given_a, c_given_b)
    p = JointPmf(("A", "B", "C"), t)
    assert mutual_information(p, ("A",), ("C",)) <= (
        mutual_information(p, ("A",), ("B",)) + 1e-10)


# ---------------------------------------------------------------------------
# composition with a broadcast channel
# ---------------------------------------------------------------------------

def test_compose_joint_marginals_exact():
    rng = np.random.default_rng(11)
    aux = JointPmf(("U", "V", "W", "X"),
                   rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
    trans = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    ch = DmBroadcastChannel(trans)
    q1 = rng.dirichlet(np.ones(2), size=(2, 2, 2))        # (U,W,Y1) -> Yh1
    q2 = rng.dirichlet(np.ones(2), size=2)                # Y2 -> Yh2
    big = compose_joint(aux, ch, q1=q1, q2=q2)
    assert big.names == ("U", "V", "W", "X", "Y1", "Y2", "Yh1", "Yh2")
    # the aux marginal must come back exactly
    back = big.marginal(("U", "V", "W", "X")).table
    assert np.max(np.abs(back - aux.table)) <= 1e-14
    # and the (X, Y1, Y2) law must equal p(x) * channel
    want = np.einsum("x,xab->xab", aux.marginal(("X",)).table, trans)
    got = big.marginal(("X", "Y1", "Y2")).table
    assert np.max(np.abs(got - want)) <= 1e-14


def test_compose_joint_checks_shapes():
    rng = np.random.default_rng(3)
    aux3 = JointPmf(("U", "V", "W"), rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
    trans = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
    ch = DmBroadcastChannel(trans)
    with pytest.raises(ValueError):
        compose_joint(aux3, ch)
    aux_bad_x = JointPmf(("U", "V", "W", "X"),
                         rng.dirichlet(np.ones(24)).reshape(2, 2, 2, 3))
    with pytest.raises(ValueError):
        compose_joint(aux_bad_x, ch)

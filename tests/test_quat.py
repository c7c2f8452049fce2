import tracemalloc

import numpy as np
import pytest

from qlct.quat import (from_complex_pair, qabs, qabs_sq, qconj, qmul,
                       to_complex_pair)
from qlct.signal import Grid2D, QSignal2D

from oracles import I, J, K, ONE, qexp_axis, quaternion


def test_hamilton_multiplication_table():
    np.testing.assert_array_equal(qmul(I, J), K)
    np.testing.assert_array_equal(qmul(J, I), -K)
    np.testing.assert_array_equal(qmul(J, K), I)
    np.testing.assert_array_equal(qmul(K, J), -I)
    np.testing.assert_array_equal(qmul(K, I), J)
    np.testing.assert_array_equal(qmul(I, K), -J)
    for unit in (I, J, K):
        np.testing.assert_array_equal(qmul(unit, unit), -ONE)


def test_identity_element():
    q = quaternion(2.0, 3.0, -1.0, 0.5)
    np.testing.assert_array_equal(qmul(q, ONE), q)
    np.testing.assert_array_equal(qmul(ONE, q), q)


def test_norm_multiplicativity_example():
    p = quaternion(1.0, 1.0, 0.0, 0.0)
    q = quaternion(1.0, 0.0, 1.0, 0.0)
    assert qabs(qmul(p, q)) == pytest.approx(2.0, abs=1e-15)
    assert qabs(p) * qabs(q) == pytest.approx(2.0, abs=1e-15)


def test_conjugation_examples():
    np.testing.assert_array_equal(qconj(quaternion(1, 1, 1, 1)),
                                  quaternion(1, -1, -1, -1))
    real = quaternion(3.5)
    np.testing.assert_array_equal(qconj(real), real)
    # conj(ij) = conj(j) conj(i) = (-j)(-i) = ji = -k
    np.testing.assert_array_equal(qconj(qmul(I, J)), qmul(qconj(J), qconj(I)))
    np.testing.assert_array_equal(qconj(qmul(I, J)), -K)


def test_qexp_axis_examples():
    np.testing.assert_allclose(qexp_axis("i", 0.0), ONE, atol=0)
    np.testing.assert_allclose(qexp_axis("j", np.pi / 2), J, atol=1e-16)
    half = qexp_axis("i", np.pi / 4)
    np.testing.assert_allclose(qmul(half, half), qexp_axis("i", np.pi / 2),
                               atol=1e-15)
    np.testing.assert_allclose(qabs(qexp_axis("i", 1.234)), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        qexp_axis("k", 1.0)


def _random_quats(rng, n):
    return rng.standard_normal((n, 4))


def test_norm_multiplicativity_random():
    rng = np.random.default_rng(42)
    p = _random_quats(rng, 1000)
    q = _random_quats(rng, 1000)
    lhs = qabs(qmul(p, q))
    rhs = qabs(p) * qabs(q)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_conjugation_antiautomorphism_random():
    rng = np.random.default_rng(43)
    p = _random_quats(rng, 1000)
    q = _random_quats(rng, 1000)
    p /= qabs(p)[:, None]
    q /= qabs(q)[:, None]
    assert np.max(np.abs(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p)))) < 1e-15


def test_associativity_random():
    rng = np.random.default_rng(44)
    p, q, r = (_random_quats(rng, 1000) for _ in range(3))
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    scale = np.maximum(qabs(lhs), 1e-30)[:, None]
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_complex_pair_roundtrip_bit_identical():
    rng = np.random.default_rng(45)
    q = rng.standard_normal((8, 8, 4))
    qa, qb = to_complex_pair(q)
    back = from_complex_pair(qa, qb)
    assert np.array_equal(back, q)


def test_complex_pair_roundtrip_keeps_signed_zeros_and_infinities():
    q = np.array([[-0.0, 0.0, -0.0, 1.0],
                  [np.inf, 1.0, -np.inf, -0.0],
                  [1.0, -np.inf, 2.0, np.inf]])
    back = from_complex_pair(*to_complex_pair(q))
    assert back.tobytes() == q.tobytes()


def test_complex_pair_is_a_view_of_the_quaternion_array():
    q = np.random.default_rng(49).standard_normal((4, 5, 4))
    qa, qb = to_complex_pair(q)
    assert np.shares_memory(q, qa) and np.shares_memory(q, qb)
    qb[1, 2] = 7 - 3j
    assert q[1, 2, 2:].tolist() == [7.0, -3.0]


def test_qabs_sq_allocates_little_beyond_its_output():
    q = np.random.default_rng(50).standard_normal((16, 16, 16, 16, 4))
    out_bytes = q.nbytes // 4
    tracemalloc.start()
    try:
        mod2 = qabs_sq(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mod2, np.sum(q * q, axis=-1))
    assert peak < 2.5 * out_bytes, peak / out_bytes


def test_signal_modulus_is_qabs():
    q = np.random.default_rng(51).standard_normal((6, 7, 4))
    f = QSignal2D(Grid2D.centered(6, 7, 0.5, 0.5), q)
    assert f.modulus().tobytes() == qabs(q).tobytes()


def test_symplectic_commutation_rule():
    # qa * j = j * conj(qa) for qa in the i-plane
    rng = np.random.default_rng(46)
    for _ in range(100):
        w, x = rng.standard_normal(2)
        qa = quaternion(w, x, 0.0, 0.0)
        np.testing.assert_allclose(qmul(qa, J), qmul(J, qconj(qa)), atol=1e-15)


def test_right_j_exponential_mixing_identity():
    # (qa + qb j) e^{j theta} = (qa cos - qb sin) + (qa sin + qb cos) j,
    # the plane-mixing rule the fast transform path relies on.
    rng = np.random.default_rng(47)
    for _ in range(200):
        w, x, y, z = rng.standard_normal(4)
        theta = rng.uniform(-10, 10)
        q = quaternion(w, x, y, z)
        qa, qb = to_complex_pair(q)
        c, s = np.cos(theta), np.sin(theta)
        expected = from_complex_pair(qa * c - qb * s, qa * s + qb * c)
        got = qmul(q, qexp_axis("j", theta))
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_left_i_exponential_is_complex_multiplication():
    rng = np.random.default_rng(48)
    for _ in range(100):
        w, x, y, z = rng.standard_normal(4)
        theta = rng.uniform(-10, 10)
        q = quaternion(w, x, y, z)
        qa, qb = to_complex_pair(q)
        phase = np.exp(1j * theta)
        expected = from_complex_pair(phase * qa, phase * qb)
        got = qmul(qexp_axis("i", theta), q)
        np.testing.assert_allclose(got, expected, atol=1e-14)

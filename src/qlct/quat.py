"""Hamilton quaternion arrays.

Quaternions are float64 arrays whose last axis has length 4, ordered
(w, x, y, z) for q = w + x*i + y*j + z*k with ij = -ji = k, jk = -kj = i,
ki = -ik = j and i^2 = j^2 = k^2 = -1. All operations broadcast over
leading axes, so a single quaternion is shape (4,) and a sampled 2D field
is (n1, n2, 4).

The symplectic split writes q = qa + qb*j with qa = w + x*i and
qb = y + z*i held as ordinary complex numbers in the i-plane. Only this
module maps the stored layout to the pair: (..., 4) float64 read as
(..., 2) complex128. `to_complex_pair` returns zero-copy views and
`from_complex_pair` views one complex buffer as floats, so the round trip
is bit-exact for every double (signed zeros and infinities included).
|q|^2 is `pair_abs_sq`, which `qabs_sq` and `qabs` read through the views.
"""

from __future__ import annotations

import numpy as np

def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p*q (non-commutative), broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def qconj(q: np.ndarray) -> np.ndarray:
    """Conjugate: sign of the pure part flipped."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def qabs(q: np.ndarray) -> np.ndarray:
    """Modulus |q| = sqrt(w^2 + x^2 + y^2 + z^2)."""
    return np.sqrt(qabs_sq(q))


def qabs_sq(q: np.ndarray) -> np.ndarray:
    """Squared modulus, cheaper than qabs when the root is not needed."""
    return pair_abs_sq(*to_complex_pair(q))


def pair_abs_sq(qa: np.ndarray, qb: np.ndarray, out=None) -> np.ndarray:
    """Squared modulus of q = qa + qb*j, summed as w^2 + x^2 + y^2 + z^2
    in that order (into out when given)."""
    out = np.square(qa.real, out=out)
    out += np.square(qa.imag)
    out += np.square(qb.real)
    out += np.square(qb.imag)
    return out


def to_complex_pair(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split q = qa + qb*j into i-plane complex arrays (qa, qb); views of
    q itself when q is C-contiguous float64, else of a converted copy."""
    pairs = np.ascontiguousarray(q, dtype=float).view(complex)
    return pairs[..., 0], pairs[..., 1]


def from_complex_pair(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Inverse of to_complex_pair: a fresh (..., 4) array of the same doubles."""
    pairs = np.empty((*np.shape(qa), 2), complex)
    pairs[..., 0] = qa
    pairs[..., 1] = qb
    return pairs.view(float)

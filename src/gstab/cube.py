"""
Exact Fourier/Walsh analysis of k-ary functions on the discrete cube
{-1,1}^n: noise stability under the rho-correlated-bits operator,
influences, and standard voting rules.

Points are indexed by bit pattern: bit i of the index is 1 when x_i = +1.
A function is a flat table of labels in 1..k over all 2^n points; analysis
runs on its simplex embedding, whose Walsh coefficients are one axis-wise
contraction (gauss.contract_axes) into a (2^n, k) array whose row S is the
coefficient of the subset with mask S.  With fhat the embedded coefficients,

    stability(rho)   = sum_S rho^{|S|} ||fhat(S)||^2
                     = Pr[f(x) = f(y)],  E[x_i y_i] = rho,
    influence_i      = sum_{S containing i} ||fhat(S)||^2.

Both sums are array reductions over the spectral masses ||fhat(S)||^2:
the stability bins them by level |S|, each influence sums the rows whose
mask has bit i set.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .gauss import check_rho, contract_axes

__all__ = [
    "CubeFn",
    "walsh_transform",
    "cube_stability",
    "cube_stability_bruteforce",
    "cube_influences",
    "make_voting_rule",
]

MAX_CUBE_DIM = 20


@dataclass
class CubeFn:
    """Labels in 1..k over all 2^n cube points, bit-pattern indexed."""

    n: int
    k: int
    table: np.ndarray

    def __post_init__(self):
        if self.n > MAX_CUBE_DIM:
            raise ValueError(f"cube dimension limited to {MAX_CUBE_DIM}")
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != (1 << self.n,):
            raise ValueError("table length must be 2^n")
        if self.table.min() < 1 or self.table.max() > self.k:
            raise ValueError("labels must lie in 1..k")

    def points(self) -> np.ndarray:
        """All cube points as a (2^n, n) array of +-1."""
        idx = np.arange(1 << self.n)
        bits = (idx[:, None] >> np.arange(self.n)) & 1
        return 2.0 * bits - 1.0

    def embedding(self) -> np.ndarray:
        """(2^n, k) one-hot simplex embedding."""
        out = np.zeros((1 << self.n, self.k))
        out[np.arange(1 << self.n), self.table - 1] = 1.0
        return out

    def to_json(self) -> str:
        """Labels packed as base64 bytes: uint8 when k <= 255, otherwise the
        narrowest little-endian unsigned type, named under "dtype"."""
        dtype = np.min_scalar_type(self.k).newbyteorder("<")
        packed = base64.b64encode(self.table.astype(dtype).tobytes()).decode()
        doc = {"n": self.n, "k": self.k, "labels": packed}
        if dtype.itemsize > 1:
            doc["dtype"] = dtype.str
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "CubeFn":
        doc = json.loads(text)
        table = np.frombuffer(
            base64.b64decode(doc["labels"]), dtype=np.dtype(doc.get("dtype", "u1"))
        ).astype(np.int64)
        return cls(doc["n"], doc["k"], table)


def _popcount(n: int) -> np.ndarray:
    """|S| for every mask S in 0..2^n - 1."""
    idx = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        out += (idx >> i) & 1
    return out


# per-axis character matrix: row b is bit b (0 <-> x_i = -1), column s
# is chi_s(x_i) / 2 with chi_0 = 1 and chi_1 = x_i
_CHARACTERS = np.array([[0.5, -0.5], [0.5, 0.5]])


def walsh_transform(f: CubeFn) -> np.ndarray:
    """Walsh coefficients of the simplex embedding as a (2^n, k) array.

    Row S is the coefficient of the subset with mask S.  With the +-1
    convention above, fhat(S) = 2^{-n} sum_x f(x) chi_S(x) where
    chi_S(x) = prod_{i in S} x_i: one contraction of the embedding,
    viewed as a (2,)*n + (k,) table, with the same 2 x 2 character matrix
    on every axis, so the bit layout of the rows comes back unchanged.
    Every product is by +-1/2, so the sums are those of an unnormalized
    butterfly scaled by 2^-n.  Parseval holds with equality.
    """
    table = f.embedding().reshape((2,) * f.n + (f.k,))
    return contract_axes(table, _CHARACTERS, f.n).reshape(1 << f.n, f.k)


def _spectral_mass(f: CubeFn) -> np.ndarray:
    """||fhat(S)||^2 for every mask S."""
    coeffs = walsh_transform(f)
    return np.einsum("sk,sk->s", coeffs, coeffs)


def cube_stability(f: CubeFn, rho: float) -> float:
    """Spectral value of Pr[f(x) = f(y)] for rho-correlated bits."""
    check_rho(rho)
    levels = np.bincount(_popcount(f.n), weights=_spectral_mass(f), minlength=f.n + 1)
    return float(np.dot(float(rho) ** np.arange(f.n + 1), levels))


def cube_stability_bruteforce(f: CubeFn, rho: float) -> float:
    """Enumeration over all correlated pair outcomes (n <= 8 sensible).

    Each coordinate pair (x_i, y_i) has Pr[y_i = x_i] = (1+rho)/2
    independently; the double sum over all 4^n outcomes is exact.
    """
    check_rho(rho)
    same = (1.0 + rho) / 2.0
    npts = 1 << f.n
    idx = np.arange(npts)
    agree_bits = np.zeros((npts, npts), dtype=np.int64)
    for i in range(f.n):
        xb = (idx >> i) & 1
        agree_bits += xb[:, None] == xb[None, :]
    prob = same**agree_bits * (1.0 - same) ** (f.n - agree_bits)
    match = (f.table[:, None] == f.table[None, :]).astype(float)
    return float((prob * match).sum() / npts)


def cube_influences(f: CubeFn) -> np.ndarray:
    """Exact influences of the simplex embedding, via the spectrum."""
    mass = _spectral_mass(f)
    # masks with bit i set are the second half of each block of 2^{i+1}
    return np.array([mass.reshape(-1, 2, 1 << i)[:, 1].sum() for i in range(f.n)])


def make_voting_rule(kind: str, n: int, k: int, breakpoints=None) -> CubeFn:
    """Named k-ary rules on n bits.

    dictator: label by the sign of coordinate 1.  majority (odd n, k=2):
    label by the sign of the bit sum.  plurality: recode disjoint groups
    of ceil(log2 k) bits into symbols mod k and take the most frequent
    (ties to the smallest).  slab-embedding: label by a slab arrangement
    applied to the normalized bit sum; ``breakpoints`` defaults to the
    equal-measure cuts.
    """
    npts = 1 << n
    idx = np.arange(npts)
    if kind == "dictator":
        if k != 2:
            raise ValueError("dictator rule needs k = 2")
        table = np.where(idx & 1, 1, 2)
    elif kind == "majority":
        if k != 2:
            raise ValueError("majority rule needs k = 2")
        if n % 2 == 0:
            raise ValueError("majority needs odd n")
        table = np.where(2 * _popcount(n) > n, 1, 2)
    elif kind == "plurality":
        group = max(1, math.ceil(math.log2(k)))
        if n < group:
            raise ValueError("not enough bits for one symbol")
        ngroups = n // group
        symbols = np.zeros((npts, ngroups), dtype=np.int64)
        for g in range(ngroups):
            val = np.zeros(npts, dtype=np.int64)
            for b in range(group):
                val |= ((idx >> (g * group + b)) & 1) << b
            symbols[:, g] = val % k
        counts = np.zeros((npts, k), dtype=np.int64)
        for g in range(ngroups):
            for lab in range(k):
                counts[:, lab] += symbols[:, g] == lab
        table = counts.argmax(axis=1) + 1
    elif kind == "slab-embedding":
        from scipy.special import ndtri

        if breakpoints is None:
            breakpoints = ndtri(np.arange(1, k) / k)
        breakpoints = np.asarray(breakpoints, dtype=float)
        s = (2.0 * _popcount(n) - n) / math.sqrt(n)
        table = np.searchsorted(breakpoints, s, side="left") + 1
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    return CubeFn(n, k, table)

"""
Dense symmetric tensor algebra over small dimensions, and the iterated
Ito-integral correspondence between symmetric tensors and Wiener chaos.

A SymmetricTensor of order q over R^n is invariant under every index
permutation.  Storage is a full dense array of shape (n,)*q, which keeps
contractions and flattenings one tensordot/reshape away; the canonical
entry of a multiset is exposed through ``value``.  Dense storage caps the
practical scale at roughly n <= 30, q <= 4.

The order-q Ito integral is pinned down by the rank-one rule

    I_q(h^{x q}) = H_q(<h, x>),   ||h|| = 1,

extended linearly; together with the isometry E[I_p(f) I_q(g)] =
delta_{pq} <f, g>_F this gives the closed evaluation form

    I_q(h)(x) = sum_{multisets S, |S|=q} h(S) * sqrt(q!/prod_i m_i!)
                * prod_i H_{m_i}(x_i),

where m_i is the multiplicity of coordinate i in S.  Products of chaoses
decompose through the multiplication formula

    I_p(f) I_q(g) = sum_{r=0}^{min(p,q)} r! C(p,r) C(q,r)
                    * sqrt((p+q-2r)!)/sqrt(p! q!) * I_{p+q-2r}(f ~x_r g).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .gauss import hermite_table, multisets

__all__ = [
    "SymmetricTensor",
    "symmetrize",
    "contract",
    "ito_eval",
    "ito_eval_many",
    "ito_product_tensors",
    "basis_tensor",
    "flattening_top_singular_value",
]

SYMMETRY_TOL = 1e-9


def _multiset_weight(ms: tuple[int, ...]) -> float:
    """Number of ordered arrangements q!/prod m_i! of a sorted multiset."""
    q = len(ms)
    w = math.factorial(q)
    for _, group in itertools.groupby(ms):
        w //= math.factorial(sum(1 for _ in group))
    return float(w)


@dataclass(frozen=True)
class SymmetricTensor:
    """Order-q symmetric tensor over R^n, dense storage."""

    order: int
    dim: int
    array: np.ndarray

    def __post_init__(self):
        expected = (self.dim,) * self.order
        if self.array.shape != expected:
            raise ValueError(f"array shape {self.array.shape} != {expected}")
        self.array.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray, validate: bool = True) -> "SymmetricTensor":
        arr = np.asarray(arr, dtype=float)
        order = arr.ndim
        dim = arr.shape[0] if order else 1
        t = cls(order, dim, arr.copy())
        if validate and order >= 2 and not _is_symmetric(arr):
            raise ValueError("array is not symmetric; use symmetrize()")
        return t

    @classmethod
    def zeros(cls, order: int, dim: int) -> "SymmetricTensor":
        return cls(order, dim, np.zeros((dim,) * order))

    def value(self, multiset) -> float:
        """Common entry on every ordering of the given multiset."""
        idx = tuple(sorted(multiset))
        if len(idx) != self.order:
            raise ValueError("multiset size must equal the tensor order")
        return float(self.array[idx])

    def frobenius_norm2(self) -> float:
        return float(np.sum(self.array**2))

    def frobenius_norm(self) -> float:
        return math.sqrt(self.frobenius_norm2())

    def inner(self, other: "SymmetricTensor") -> float:
        if (self.order, self.dim) != (other.order, other.dim):
            raise ValueError("tensor shapes differ")
        return float(np.sum(self.array * other.array))

    def scale(self, c: float) -> "SymmetricTensor":
        return SymmetricTensor(self.order, self.dim, c * self.array)

    def add(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise ValueError("tensor shapes differ")
        return SymmetricTensor(self.order, self.dim, self.array + other.array)

    def embed(self, dim: int, offset: int = 0) -> "SymmetricTensor":
        """Place this tensor on coordinates [offset, offset+self.dim)."""
        if offset + self.dim > dim:
            raise ValueError("embedding exceeds target dimension")
        arr = np.zeros((dim,) * self.order)
        sl = tuple(slice(offset, offset + self.dim) for _ in range(self.order))
        arr[sl] = self.array
        return SymmetricTensor(self.order, dim, arr)

    def entries(self):
        """Iterate (multiset, value) over nonzero canonical entries."""
        for ms in multisets(self.dim, self.order):
            v = float(self.array[ms])
            if v != 0.0:
                yield ms, v

    def to_json(self) -> str:
        entries = [{"multiset": list(ms), "value": v} for ms, v in self.entries()]
        return json.dumps({"order": self.order, "dim": self.dim, "entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "SymmetricTensor":
        doc = json.loads(text)
        order, dim = doc["order"], doc["dim"]
        arr = np.zeros((dim,) * order)
        for e in doc["entries"]:
            ms = tuple(sorted(e["multiset"]))
            for perm in set(itertools.permutations(ms)):
                arr[perm] = e["value"]
        return cls(order, dim, arr)


def _is_symmetric(arr: np.ndarray) -> bool:
    order = arr.ndim
    scale = max(1.0, float(np.max(np.abs(arr))))
    for perm in itertools.permutations(range(order)):
        if np.max(np.abs(arr - arr.transpose(perm))) > SYMMETRY_TOL * scale:
            return False
    return True


def symmetrize(t) -> SymmetricTensor:
    """Average over all index permutations; never increases the norm."""
    arr = t.array if isinstance(t, SymmetricTensor) else np.asarray(t, dtype=float)
    order = arr.ndim
    if order <= 1:
        return SymmetricTensor(order, arr.shape[0] if order else 1, arr.copy())
    acc = np.zeros_like(arr)
    count = 0
    for perm in itertools.permutations(range(order)):
        acc += arr.transpose(perm)
        count += 1
    return SymmetricTensor(order, arr.shape[0], acc / count)


def contract(f: SymmetricTensor, g: SymmetricTensor, r: int) -> np.ndarray:
    """Contraction product f x_r g, joining the last r slots of each.

    The result has order p+q-2r and is in general NOT symmetric; it is
    returned as a raw ndarray (symmetrize() turns it back into a
    SymmetricTensor).  r = 0 is the outer product; full contraction
    returns a 0-d array.
    """
    if f.dim != g.dim:
        raise ValueError("tensor dimensions differ")
    if r < 0 or r > min(f.order, g.order):
        raise ValueError(f"contraction arity r={r} out of range")
    if r == 0:
        return np.multiply.outer(f.array, g.array)
    axes_f = tuple(range(f.order - r, f.order))
    axes_g = tuple(range(g.order - r, g.order))
    return np.tensordot(f.array, g.array, axes=(axes_f, axes_g))


def basis_tensor(multiset, dim: int) -> SymmetricTensor:
    """Unit-norm symmetric tensor supported on one multiset.

    Each distinct ordering of the multiset carries 1/sqrt(weight), where
    weight = q!/prod m_i! counts the orderings, so the Frobenius norm is 1
    and I_q of the result is the orthonormal Hermite product
    prod_i H_{m_i}(x_i) attached to the multiset.
    """
    ms = tuple(sorted(multiset))
    order = len(ms)
    arr = np.zeros((dim,) * order)
    entry = 1.0 / math.sqrt(_multiset_weight(ms))
    for perm in set(itertools.permutations(ms)):
        arr[perm] = entry
    return SymmetricTensor(order, dim, arr)


def _chaos_terms(h: SymmetricTensor):
    """(multiset, multiplicities, coefficient) triples for evaluation."""
    terms = []
    for ms, v in h.entries():
        mult: dict[int, int] = {}
        for i in ms:
            mult[i] = mult.get(i, 0) + 1
        coeff = v * math.sqrt(_multiset_weight(ms))
        terms.append((mult, coeff))
    return terms


def ito_eval(h: SymmetricTensor, x) -> float:
    """I_q(h)(x) at a single point x in R^dim."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != h.dim:
        raise ValueError("point dimension does not match tensor dimension")
    return float(ito_eval_many(h, x[None, :])[0])


def ito_eval_many(h: SymmetricTensor, X: np.ndarray) -> np.ndarray:
    """I_q(h) over an (N, dim) batch of points.

    Only coordinates appearing in nonzero entries are touched, so sparse
    tensors on wide batches stay cheap; each touched coordinate gets one
    Hermite table up to its largest multiplicity, in the dtype of X.
    """
    X = np.atleast_2d(np.asarray(X))
    if not np.issubdtype(X.dtype, np.floating):
        X = X.astype(float)
    if X.shape[1] != h.dim:
        raise ValueError("batch dimension does not match tensor dimension")
    if h.order == 0:
        return np.full(X.shape[0], float(h.array), dtype=X.dtype)
    terms = _chaos_terms(h)
    top: dict[int, int] = {}
    for mult, _ in terms:
        for i, m in mult.items():
            top[i] = max(top.get(i, 0), m)
    tables = {i: hermite_table(m, X[:, i]) for i, m in top.items()}
    out = np.zeros(X.shape[0], dtype=X.dtype)
    for mult, coeff in terms:
        items = iter(mult.items())
        i0, m0 = next(items)
        term = coeff * tables[i0][m0]
        for i, m in items:
            term = term * tables[i][m]
        out += term
    return out


def ito_product_tensors(f: SymmetricTensor, g: SymmetricTensor) -> dict[int, SymmetricTensor]:
    """Chaos decomposition of I_p(f) * I_q(g) as {order: SymmetricTensor}.

    Orders with identically-zero component are dropped; the order-0 entry,
    when present, is a 0-d SymmetricTensor holding E[I_p(f) I_q(g)].
    """
    if f.dim != g.dim:
        raise ValueError("tensor dimensions differ")
    p, q = f.order, g.order
    out: dict[int, SymmetricTensor] = {}
    for r in range(min(p, q) + 1):
        order = p + q - 2 * r
        coeff = (
            math.factorial(r)
            * math.comb(p, r)
            * math.comb(q, r)
            * math.sqrt(math.factorial(order))
            / math.sqrt(math.factorial(p) * math.factorial(q))
        )
        raw = contract(f, g, r)
        comp = symmetrize(raw).scale(coeff) if order > 0 else SymmetricTensor(
            0, f.dim, np.asarray(coeff * float(raw))
        )
        if order in out:
            out[order] = out[order].add(comp)
        else:
            out[order] = comp
    return {
        o: t
        for o, t in out.items()
        if o == 0 or np.any(t.array != 0.0)
    }


def flattening_top_singular_value(t: SymmetricTensor, left_slots: tuple[int, ...]) -> float:
    """Top singular value of the matrix flattening along a bipartition.

    The slots in ``left_slots`` become matrix rows (dimension dim^|S|),
    the rest columns.  The value is the spectral norm of that matrix,
    from one LAPACK singular value decomposition, so it is exact to
    roundoff however close the next singular value is.
    """
    order, dim = t.order, t.dim
    left = tuple(left_slots)
    right = tuple(i for i in range(order) if i not in left)
    if not left or not right:
        raise ValueError("bipartition must be proper")
    mat = t.array.transpose(left + right).reshape(dim ** len(left), dim ** len(right))
    return float(np.linalg.norm(mat, 2))

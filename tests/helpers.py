"""Small constructions that only the tests use.

The library keeps no function that only a test calls; the tests build
these from its public pieces instead.
"""

from relcat.concrete import ConcreteMap
from relcat.errors import ArityMismatch
from relcat.field import Fq
from relcat.matrix import MatFq, subspace_count
from relcat.qmat import QMat
from relcat.relations import Relation


def zero_space(field: Fq, s: int, k: int) -> Relation:
    """The zero subspace of F_q^{s+k} as an arrow [s] -> [k]."""
    return Relation(field, s, k, MatFq.from_rows(field, [], s + k))


def full_space(field: Fq, s: int, k: int) -> Relation:
    """All of F_q^{s+k} as an arrow [s] -> [k]."""
    return Relation(field, s, k, MatFq.identity(field, s + k))


def to_dense(mat: QMat) -> list:
    """The matrix as a list of rows, zeros included."""
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for (r, c), v in mat.cells().items():
        out[r][c] = v
    return out


def concrete_compose(f: ConcreteMap, g: ConcreteMap) -> ConcreteMap:
    """The matrix product f ∘ g of two maps at one rank."""
    if f.s != g.k:
        raise ArityMismatch(f"compose [{g.s}]->[{g.k}] then [{f.s}]->[{f.k}]")
    return ConcreteMap(f.field, f.n, g.s, f.k, f.mat @ g.mat)


def concrete_tensor(f: ConcreteMap, g: ConcreteMap) -> ConcreteMap:
    """The Kronecker product at one rank, f on the least significant strands."""
    return ConcreteMap(f.field, f.n, f.s + g.s, f.k + g.k, f.mat.kron(g.mat))


def hom_dimension(field: Fq, s: int, k: int) -> int:
    """Number of relations, i.e. dim Hom([s],[k]) in the formal category."""
    return subspace_count(field, s + k)

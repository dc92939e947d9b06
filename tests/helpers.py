"""Small constructions that only the tests use.

The library keeps no function that only a test calls; the tests build
these from its public pieces instead.
"""

import re

from relcat.concrete import ConcreteMap
from relcat.errors import ArityMismatch, ParseError, ShapeMismatch, TooLarge
from relcat.field import COUNT_DIGITS, Fq
from relcat.matrix import MatFq, null_rows, row_reduce, subspace_count
from relcat.qmat import QMat
from relcat.relations import GENERATOR_ARITIES, Relation


def zero_space(field: Fq, s: int, k: int) -> Relation:
    """The zero subspace of F_q^{s+k} as an arrow [s] -> [k]."""
    return Relation(field, s, k, MatFq.from_rows(field, [], s + k))


def full_space(field: Fq, s: int, k: int) -> Relation:
    """All of F_q^{s+k} as an arrow [s] -> [k]."""
    return Relation(field, s, k, MatFq.identity(field, s + k))


def nonzero_cells(mat: QMat) -> dict:
    """The nonzero entries keyed by (row, col)."""
    return {divmod(key, mat.cols): v for key, v in mat.vec().items()}


def to_dense(mat: QMat) -> list:
    """The matrix as a list of rows, zeros included."""
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for (r, c), v in nonzero_cells(mat).items():
        out[r][c] = v
    return out


def transpose(mat: QMat) -> QMat:
    return QMat(mat.cols, mat.rows, {(c, r): v for (r, c), v in nonzero_cells(mat).items()})


def kernel(mat: MatFq) -> MatFq:
    """RREF basis (as rows) of {x : mat @ x^T = 0}."""
    F = mat.field
    red, _ = row_reduce(F, mat.tolist(), mat.cols)
    return MatFq.from_rows(F, null_rows(F, red, mat.cols), mat.cols).rref()[0]


def inverse(mat: MatFq) -> MatFq:
    """The inverse of a square matrix; ValueError when it is singular."""
    n = mat.rows
    if mat.cols != n:
        raise ShapeMismatch("inverse of a non-square matrix")
    if mat.rank() < n:
        raise ValueError("matrix is not invertible")
    aug, _ = mat.hstack(MatFq.identity(mat.field, n)).rref()
    return aug.take_cols(range(n, 2 * n))


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


_STARRED = {name for name in GENERATOR_ARITIES if name.endswith("*")}
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*\*?)
  | (?P<num>\d+)
  | (?P<op>:=|\^|[().\[\],;@+\-*/])
    """,
    re.VERBOSE,
)


def reference_tokenize(src: str):
    """The expression tokenizer as one anchored match per position, the
    reference for ``dsl._tokenize``."""
    tokens = []
    pos = 0
    while pos < len(src):
        match = _REFERENCE_TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if match.lastgroup != "ws":
            text = match.group()
            if match.lastgroup == "num" and len(text) > COUNT_DIGITS:
                # Python reads no int of more digits
                raise TooLarge(f"a number of {len(text)} digits (at position {pos}); "
                               f"at most {COUNT_DIGITS} are read")
            if match.lastgroup == "name" and text.endswith("*") and text not in _STARRED:
                # only the starred generators end in '*'; split it off any other name
                tokens.append((text[:-1], pos))
                tokens.append(("*", pos + len(text) - 1))
            else:
                tokens.append((text, pos))
        pos = match.end()
    tokens.append(("<end>", len(src)))
    return tokens

"""Small constructions that only the tests use.

The library keeps no function that only a test calls; the tests build
these from its public pieces instead.
"""

import re

from relcat import terms as tm
from relcat.concrete import ConcreteMap
from relcat.errors import ArityMismatch, ParseError, ShapeMismatch, TooLarge
from relcat.field import COUNT_DIGITS, Fq
from relcat.frobenius import term_eval
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


def reference_fan_and_width(term) -> tuple:
    """(dom + unit uses, strands of the widest layer) of a term, by one walk
    over its tree: the reference for the costs the term constructors set
    (``Term.units`` and ``Term.width``).

    Each eps, itself or in coev's definition, is a unit use.  A map used
    through its definition (``terms.DEFINED``) is as wide as the
    definition, a matrix literal's expansion rows * cols strands; a tensor
    adds the widths and the uses of its sides, a composite takes the widest
    part and adds the uses, and a linear combination takes the most of each.
    """
    done = []  # (unit uses, width) of the finished subterms, in walk order
    stack = [(term, 0)]  # (subterm, 0 until its parts are walked, then their number)
    while stack:
        sub, parts = stack.pop()
        kind = type(sub)
        if not parts:
            if kind is tm.Compose or kind is tm.Tensor:
                stack += ((sub, 2), (sub.left, 0), (sub.right, 0))
            elif kind is tm.LinComb:
                stack.append((sub, len(sub.parts)))
                stack += ((part, 0) for _, part in sub.parts)
            elif kind is tm.Gen and sub.name in tm.DEFINED:
                stack.append((tm.DEFINED[sub.name], 0))  # walked in the map's place
            else:
                wide = sub.dom * sub.cod if kind is tm.MuLit else 0
                unit = int(kind is tm.Gen and sub.name == "eps")
                done.append((unit, max(wide, sub.dom, sub.cod)))
            continue
        got = done[-parts:]
        del done[-parts:]
        if kind is tm.LinComb:
            done.append((max(u for u, _ in got), max(w for _, w in got)))
        else:
            (u1, w1), (u2, w2) = got
            done.append((u1 + u2, w1 + w2 if kind is tm.Tensor else max(w1, w2)))
    uses, width = done[0]
    return term.dom + uses, width


def stored_atoms(field: Fq, unit: bool = True) -> list:
    """The atoms a structure stores: m, m*, eps*, plus, z, every mu(a) and,
    with a unit, eps."""
    atoms = [tm.Gen(name) for name in ("m", "m*", "eps*", "plus", "z")]
    atoms += [tm.Gen("mu", a) for a in field.elements()]
    return atoms + [tm.Gen("eps")] * unit


def stored_maps(data) -> dict:
    """A structure's stored maps as QMats, each read through ``term_eval``."""
    return {atom: term_eval(data, atom) for atom in stored_atoms(data.field, data.has_unit)}


def reference_standard_target(field: Fq, n: int) -> dict:
    """The standard target's maps as QMats, built cell by cell from vector
    addition and scaling: the reference for ``frobenius.standard_target``."""
    q, g = field.q, tm.Gen
    dim = q**n

    def vec_add(a: int, b: int) -> int:
        da = [(a // q**i) % q for i in range(n)]
        db = [(b // q**i) % q for i in range(n)]
        return sum(field.add(x, y) * q**i for i, (x, y) in enumerate(zip(da, db)))

    def vec_scale(c: int, a: int) -> int:
        da = [(a // q**i) % q for i in range(n)]
        return sum(field.mul(c, x) * q**i for i, x in enumerate(da))

    maps = {
        g("m"): QMat(dim, dim * dim, {(v, v + dim * v): 1 for v in range(dim)}),
        g("m*"): QMat(dim * dim, dim, {(v + dim * v, v): 1 for v in range(dim)}),
        g("eps*"): QMat(1, dim, {(0, v): 1 for v in range(dim)}),
        g("eps"): QMat(dim, 1, {(v, 0): 1 for v in range(dim)}),
        g("plus"): QMat(dim, dim * dim, {
            (vec_add(v, w), v + dim * w): 1 for v in range(dim) for w in range(dim)
        }),
        g("z"): QMat(dim, 1, {(0, 0): 1}),
    }
    for a in field.elements():
        maps[g("mu", a)] = QMat(dim, dim, {(vec_scale(a, v), v): 1 for v in range(dim)})
    return maps

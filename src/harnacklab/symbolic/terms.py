"""The term algebra of the exact tensor engine and its reduced form.

Terms are products of index monomials with coefficients in
Q[n, C, beta][1/(n-2)], polynomials in the dimension n, the constant C
and a free exponent beta over the rationals with powers of n - 2 as the
only denominators (`ring.Coeff`, exact and canonical; no floating
point).  Factor kinds:

    dg(i1...ik)    k-th covariant derivative string of G, innermost first
    riem(i,j,k,l)  curvature, sign convention with the round sphere positive
    ric(i,j)       Ricci
    driem(m;...)   one covariant derivative of riem
    dric(m;i,j)    one covariant derivative of ric
    kron(i,j)      metric/identity in an orthonormal frame

plus one power of G per term, kept as an exponent in the same ring
(e.g. alpha = n/(n-2)).

This module holds `Term` and `TensorExpr`, the factor constructors,
fresh dummy names and renaming, the local canonicalization of factors
(kron contractions, curvature traces, the contracted second Bianchi
identity, slot symmetries), the canonical naming of a term's dummies and
`normalize`, which merges like terms on those canonical forms.  It is the
one home of the reduced form.  The rewrite system that sorts derivative
strings by the commutator identities (`commute_and_reduce`) and the
derivatives built on it live in `engine`, which gives this module's
public names too.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .ring import N, ZERO, Coeff, Module, TensorError, coerce

__all__ = [
    "Term", "TensorExpr",
    "dg", "riem", "ric", "kron", "gpow",
    "normalize",
]

# factor kinds: ("dg", idx), ("riem", idx), ("ric", idx),
# ("driem", idx), ("dric", idx), ("kron", idx); idx = tuple of str


class Term(NamedTuple):
    coeff: Coeff             # canonical ring element in n, C, beta
    gexp: Coeff              # exponent of the G power, same ring
    factors: tuple           # tuple of (kind, indices)

    def index_census(self):
        counts = {}
        for _, idx in self.factors:
            for name in idx:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def free_indices(self):
        return frozenset(k for k, v in self.index_census().items() if v == 1)

    def validate(self):
        for name, cnt in self.index_census().items():
            if cnt > 2:
                raise TensorError(
                    f"index {name!r} appears {cnt} times in {self}"
                )


class TensorExpr(Module):
    """Linear combination of terms; immutable value semantics."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()):
        self.terms = tuple(terms)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def single(coeff, gexp, factors) -> "TensorExpr":
        t = Term(coerce(coeff), coerce(gexp), tuple(factors))
        t.validate()
        return TensorExpr([t])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return TensorExpr(self.terms + other.terms)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, TensorExpr):
            return self._tensor_mul(other)
        c = coerce(other)
        return TensorExpr([Term(t.coeff * c, t.gexp, t.factors) for t in self.terms])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def _tensor_mul(self, other: "TensorExpr") -> "TensorExpr":
        out = []
        for a in self.terms:
            for b in other.terms:
                # internal dummies get globally fresh names so that indices
                # shared once-and-once across the operands contract
                aa = _freshen_dummies(a)
                bb = _freshen_dummies(b)
                t = Term(
                    aa.coeff * bb.coeff,
                    aa.gexp + bb.gexp,
                    aa.factors + bb.factors,
                )
                t.validate()
                out.append(t)
        return TensorExpr(out)

    # -- queries ---------------------------------------------------------

    def free_indices(self):
        frees = {t.free_indices() for t in normalize(self).terms}
        if len(frees) > 1:
            # sorted, so the message does not depend on the hash seed
            shown = ", ".join("{" + ",".join(s) + "}"
                              for s in sorted(tuple(sorted(f)) for f in frees))
            raise TensorError(f"inconsistent free indices across terms: {shown}")
        return frees.pop() if frees else frozenset()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for t in self.terms:
            facs = " ".join(
                f"{kind}({','.join(idx)})" for kind, idx in t.factors
            )
            g = f" G^({t.gexp})" if t.gexp != 0 else ""
            bits.append(f"({t.coeff}) {facs}{g}".strip())
        return "  +  ".join(bits)


# -- factor constructors ------------------------------------------------------


def dg(*indices) -> TensorExpr:
    if not 1 <= len(indices) <= 4:
        raise TensorError("derivative strings of G supported up to length 4")
    return TensorExpr.single(1, 0, [("dg", tuple(indices))])


def riem(i, j, k, l) -> TensorExpr:
    return TensorExpr.single(1, 0, [("riem", (i, j, k, l))])


def ric(i, j) -> TensorExpr:
    return TensorExpr.single(1, 0, [("ric", (i, j))])


def kron(i, j) -> TensorExpr:
    return TensorExpr.single(1, 0, [("kron", (i, j))])


def gpow(exponent) -> TensorExpr:
    return TensorExpr.single(1, exponent, [])


# -- dummy bookkeeping --------------------------------------------------------

_FRESH = itertools.count()


def _fresh_name() -> str:
    return f"_f{next(_FRESH)}"


def _rename(term: Term, mapping) -> Term:
    factors = tuple(
        (kind, tuple(mapping.get(i, i) for i in idx)) for kind, idx in term.factors
    )
    return Term(term.coeff, term.gexp, factors)


def _freshen_dummies(term: Term) -> Term:
    census = term.index_census()
    mapping = {n: _fresh_name() for n, cnt in census.items() if cnt == 2}
    return _rename(term, mapping) if mapping else term


# -- local factor canonicalization --------------------------------------------

_RIEM_SYMS = []  # (permutation of 4 slots, sign)
for _pair_swap in (False, True):
    for _s12 in (False, True):
        for _s34 in (False, True):
            perm = [0, 1, 2, 3]
            sign = 1
            if _s12:
                perm[0], perm[1] = perm[1], perm[0]
                sign = -sign
            if _s34:
                perm[2], perm[3] = perm[3], perm[2]
                sign = -sign
            if _pair_swap:
                perm = [perm[2], perm[3], perm[0], perm[1]]
            _RIEM_SYMS.append((tuple(perm), sign))


def _riem_min(idx):
    """Minimal representative of riem indices over its symmetry group."""
    best, best_sign = None, 1
    for perm, sign in _RIEM_SYMS:
        cand = tuple(idx[p] for p in perm)
        if best is None or cand < best:
            best, best_sign = cand, sign
    return best, best_sign


#: sign of a 4-slot curvature traced over the slot pair, against the Ricci
#: of the two slots left: R_{akbk} = R_{kakb} = Ric_ab = -R_{kabk} = -R_{akkb}
_TRACE_SIGN = {(1, 3): 1, (0, 2): 1, (0, 3): -1, (1, 2): -1}


def _trace(slots):
    """(sign, the two slots left) of a 4-slot curvature with an internal
    trace, the least repeated index taken; None without one."""
    dup = [x for x in set(slots) if slots.count(x) == 2]
    if not dup:
        return None
    d0 = min(dup)
    pos = tuple(p for p, x in enumerate(slots) if x == d0)
    return _TRACE_SIGN[pos], tuple(x for x in slots if x != d0)


def _canon_term_local(term: Term):
    """Rewrite factor-internal structure: kron contractions, curvature
    traces, contracted driem (second Bianchi) and the innermost dg swap.
    Returns a list of replacement terms, empty for a zero term; slot
    symmetries are left to the canonical key."""
    coeff = term.coeff
    gexp = term.gexp
    census = term.index_census()
    work = list(term.factors)
    out = []
    while work:
        kind, idx = work.pop(0)
        if kind == "kron":
            i, j = idx
            if i == j:
                coeff = coeff * N
                continue
            # i != j: an index counted twice occurs once outside the kron
            keep, drop = (i, j) if census.get(j, 0) == 2 else (j, i)
            if census.get(drop, 0) != 2:
                out.append((kind, idx))
                continue
            sub = {drop: keep}
            work = [(k2, tuple(sub.get(x, x) for x in ix)) for k2, ix in work]
            out = [(k2, tuple(sub.get(x, x) for x in ix)) for k2, ix in out]
            del census[drop]
        elif kind == "riem":
            if idx[0] == idx[1] or idx[2] == idx[3]:
                return []  # antisymmetric slots contracted: zero
            traced = _trace(idx)
            if traced:
                sign, rest = traced
                coeff = coeff * sign
                work.insert(0, ("ric", rest))
                continue
            out.append((kind, idx))
        elif kind == "driem":
            m, *slots = idx
            if slots[0] == slots[1] or slots[2] == slots[3]:
                return []
            traced = _trace(slots)
            if traced:
                sign, rest = traced
                coeff = coeff * sign
                work.insert(0, ("dric", (m,) + rest))
                continue
            if m in slots:
                # contracted second Bianchi:
                #   grad_m R_{a m c d} = grad_d Ric_{a c} - grad_c Ric_{a d}
                # bring the contracted slot into position 1 via symmetries
                for perm, csign in _RIEM_SYMS:
                    a, b, c, d = (slots[p] for p in perm)
                    if b == m:
                        break
                rest = tuple(out) + tuple(work)
                return [Term(coeff * csign, gexp, rest + (("dric", (d, a, c)),)),
                        Term(-coeff * csign, gexp, rest + (("dric", (c, a, d)),))]
            out.append((kind, idx))
        elif kind == "dg":
            # innermost pair is symmetric; leave traced strings alone so the
            # reduction can park the trace pair at the front
            if len(idx) >= 2 and idx[1] < idx[0] and len(set(idx)) == len(idx):
                idx = (idx[1], idx[0]) + idx[2:]
            out.append((kind, idx))
        elif kind in ("ric", "dric"):
            out.append((kind, idx))
        else:
            raise TensorError(f"unknown factor kind {kind!r}")
    return [Term(coeff, gexp, tuple(out))]


def _canon_local_fixpoint(term: Term):
    """Iterate local canonicalization to a fixpoint; returns a term list."""
    pending = [term]
    done = []
    guard = 0
    while pending:
        guard += 1
        if guard > 10000:
            raise TensorError("local canonicalization did not terminate")
        t = pending.pop()
        res = _canon_term_local(t)
        if len(res) == 1 and res[0].factors == t.factors and res[0].coeff == t.coeff:
            done.append(res[0])
        else:
            pending.extend(res)
    return done


# -- term canonical form ------------------------------------------------------


def _riem_sorted_factor(kind, idx):
    if kind == "riem":
        best, sign = _riem_min(idx)
        return (kind, best), sign
    if kind == "driem":
        best, sign = _riem_min(idx[1:])
        return (kind, (idx[0],) + best), sign
    return (kind, idx), 1


def _term_key_with_names(term: Term):
    """Apply slot symmetries and sort factors for a fixed index naming."""
    sign = 1
    facs = []
    for kind, idx in term.factors:
        if (kind == "dg" and len(idx) >= 2 and idx[1] < idx[0]
                and len(set(idx)) == len(idx)):
            idx = (idx[1], idx[0]) + idx[2:]
        (kind, idx), s = _riem_sorted_factor(kind, idx)
        if kind in ("ric", "kron"):
            idx = tuple(sorted(idx))
        if kind == "dric":
            idx = (idx[0],) + tuple(sorted(idx[1:]))
        sign *= s
        facs.append((kind, idx))
    facs.sort()
    return tuple(facs), sign


#: most dummies of a term that `_canonical_term` renames: 6! = 720 renamings
_MAX_DUMMIES = 6


def _canonical_term(term: Term):
    """Minimal representation over dummy renamings: (key, coeff), the key
    being (exponent sort key, sorted canonical factors).  A key reached with
    both signs belongs to a term that is its own negative: its coeff is 0."""
    census = term.index_census()
    dummies = sorted(k for k, v in census.items() if v == 2)
    best = None
    best_sign = 1
    if len(dummies) > _MAX_DUMMIES:
        raise TensorError(f"too many dummy indices for brute-force renaming: a term "
                          f"has {len(dummies)}, the limit is {_MAX_DUMMIES}")
    gkey = term.gexp.key
    for perm in itertools.permutations(range(len(dummies))):
        mapping = {d: f"_{p}" for d, p in zip(dummies, perm)}
        renamed = _rename(term, mapping)
        facs, sign = _term_key_with_names(renamed)
        key = (gkey, facs)
        if best is None or key < best:
            best, best_sign = key, sign
        elif key == best and sign != best_sign:
            best_sign = 0
    return best, term.coeff * best_sign


def normalize(expr: TensorExpr) -> TensorExpr:
    """A reduced form: local symmetries, canonical dummy naming, merged like
    terms, zero coefficients dropped.

    It is not unique: equal expressions can keep different forms (two long
    derivative strings whose sorted forms differ by curvature), so equal
    forms prove equality but different forms do not disprove it.  A term
    with more than `_MAX_DUMMIES` dummies raises TensorError."""
    bucket = {}
    gexps = {}
    for t in expr.terms:
        t.validate()
        for tt in _canon_local_fixpoint(t):
            key, coeff = _canonical_term(tt)
            bucket[key] = bucket.get(key, ZERO) + coeff
            gexps[key[0]] = tt.gexp
    out = []
    for key, coeff in sorted(bucket.items()):
        if not coeff:
            continue
        gkey, facs = key
        # rebuild the canonical term from its key
        out.append(Term(coeff, gexps[gkey], facs))
    return TensorExpr(out)

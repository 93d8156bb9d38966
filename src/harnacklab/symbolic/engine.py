"""Exact abstract-index calculus for derivatives of a harmonic function.

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

The rewrite rules are exactly the commutator identities for a normal
frame with parallel Ricci curvature, the harmonicity of G, and the
contracted second Bianchi identity; reduction sorts every derivative
string while emitting the curvature correction terms, so two expressions
are equal iff their reduced canonical forms coincide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .ring import ALPHA, BETA, C, N, ZERO, Coeff, Module, TensorError, coerce

__all__ = [
    "N", "C", "BETA", "ALPHA",
    "Term", "TensorExpr", "TensorError",
    "dg", "riem", "ric", "driem", "dric", "kron", "gpow", "scalar",
    "normalize", "commute_and_reduce", "laplacian", "gradG_pairing",
]

# factor kinds: ("dg", idx), ("riem", idx), ("ric", idx),
# ("driem", idx), ("dric", idx), ("kron", idx); idx = tuple of str


@dataclass(frozen=True)
class Term:
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


def driem(m, i, j, k, l) -> TensorExpr:
    return TensorExpr.single(1, 0, [("driem", (m, i, j, k, l))])


def dric(m, i, j) -> TensorExpr:
    return TensorExpr.single(1, 0, [("dric", (m, i, j))])


def kron(i, j) -> TensorExpr:
    return TensorExpr.single(1, 0, [("kron", (i, j))])


def gpow(exponent) -> TensorExpr:
    return TensorExpr.single(1, exponent, [])


def scalar(coeff) -> TensorExpr:
    return TensorExpr.single(coeff, 0, [])


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


def _canon_term_local(term: Term):
    """Canonicalize factor-internal structure; may return None (zero term)
    or a list of replacement terms (Bianchi splits a driem contraction)."""
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
            # contract into any other factor sharing an index
            target = None
            for w, (k2, idx2) in enumerate(work):
                if i in idx2 or j in idx2:
                    target = w
                    break
            if target is None:
                for w, (k2, idx2) in enumerate(out):
                    if i in idx2 or j in idx2:
                        target = -1 - w
                        break
            if target is not None:
                keep, drop = (i, j) if census.get(j, 0) == 2 else (j, i)
                if census.get(drop, 0) != 2:
                    out.append((kind, idx))
                    continue
                sub = {drop: keep}
                work = [(k2, tuple(sub.get(x, x) for x in ix)) for k2, ix in work]
                out = [(k2, tuple(sub.get(x, x) for x in ix)) for k2, ix in out]
                census = {}
                for _, ix in itertools.chain(out, work):
                    for nm in ix:
                        census[nm] = census.get(nm, 0) + 1
                continue
            out.append((kind, idx))
        elif kind == "riem":
            i, j, k, l = idx
            if i == j or k == l:
                return []  # antisymmetric slots contracted: zero
            # internal trace -> ricci
            dup = [x for x in set(idx) if idx.count(x) == 2]
            if dup:
                d0 = min(dup)
                pos = tuple(p for p, x in enumerate(idx) if x == d0)
                rest = [x for p, x in enumerate(idx) if p not in pos]
                sign = {
                    (1, 3): 1,   # R_{a k b k} = Ric_ab
                    (0, 2): 1,   # R_{k a k b} = Ric_ab
                    (0, 3): -1,  # R_{k a b k} = -Ric_ab
                    (1, 2): -1,  # R_{a k k b} = -Ric_ab
                }[pos]
                coeff = coeff * sign
                work.insert(0, ("ric", tuple(rest)))
                continue
            out.append((kind, idx))
        elif kind == "ric":
            out.append((kind, tuple(sorted(idx))))
        elif kind == "driem":
            m, i, j, k, l = idx
            if i == j or k == l:
                return []
            slots = (i, j, k, l)
            # internal slot trace -> dric
            dup = [x for x in set(slots) if slots.count(x) == 2]
            if dup:
                d0 = min(dup)
                pos = tuple(p for p, x in enumerate(slots) if x == d0)
                rest = [x for p, x in enumerate(slots) if p not in pos]
                sign = {(1, 3): 1, (0, 2): 1, (0, 3): -1, (1, 2): -1}[pos]
                coeff = coeff * sign
                work.insert(0, ("dric", (m,) + tuple(rest)))
                continue
            if m in slots:
                # contracted second Bianchi:
                #   grad_m R_{a m c d} = grad_d Ric_{a c} - grad_c Ric_{a d}
                # bring the contracted slot into position 1 via symmetries
                cand = None
                for perm, s in _RIEM_SYMS:
                    arr = tuple(slots[p] for p in perm)
                    if arr[1] == m:
                        cand, csign = arr, s
                        break
                a, _, c, d = cand
                t1 = Term(coeff * csign, gexp,
                          tuple(out) + tuple(work) + (("dric", (d, a, c)),))
                t2 = Term(-coeff * csign, gexp,
                          tuple(out) + tuple(work) + (("dric", (c, a, d)),))
                return [t1, t2]
            out.append((kind, idx))
        elif kind == "dric":
            m, i, j = idx
            out.append((kind, (m,) + tuple(sorted((i, j)))))
        elif kind == "dg":
            # innermost pair is symmetric; leave traced strings alone so the
            # reduction can park the trace pair at the front
            if len(idx) >= 2 and idx[1] < idx[0] and len(set(idx)) == len(idx):
                idx = (idx[1], idx[0]) + idx[2:]
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
        if kind in ("ric",):
            idx = tuple(sorted(idx))
        if kind == "dric":
            idx = (idx[0],) + tuple(sorted(idx[1:]))
        if kind == "kron":
            idx = tuple(sorted(idx))
        sign *= s
        facs.append((kind, idx))
    facs.sort()
    return tuple(facs), sign


def _canonical_term(term: Term):
    """Minimal representation over dummy renamings: (key, coeff), the key
    being (exponent sort key, sorted canonical factors)."""
    census = term.index_census()
    dummies = sorted(k for k, v in census.items() if v == 2)
    best = None
    best_sign = 1
    if len(dummies) > 6:
        raise TensorError("too many dummy indices for brute-force renaming")
    gkey = term.gexp.key
    for perm in itertools.permutations(range(len(dummies))):
        mapping = {d: f"_{p}" for d, p in zip(dummies, perm)}
        renamed = _rename(term, mapping)
        facs, sign = _term_key_with_names(renamed)
        key = (gkey, facs)
        if best is None or key < best:
            best, best_sign = key, sign
    return best, term.coeff * best_sign


def normalize(expr: TensorExpr) -> TensorExpr:
    """Unique canonical form: local symmetries, canonical dummy naming,
    merged like terms, zero coefficients dropped."""
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


# -- rewrite system -----------------------------------------------------------


def _swap_dg(term: Term, fpos: int, p: int):
    """Swap positions (p, p+1) of the dg factor at fpos, emitting the
    curvature corrections dictated by the commutator identities."""
    kind, idx = term.factors[fpos]
    L = len(idx)
    rest = term.factors[:fpos] + term.factors[fpos + 1:]
    swapped = idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2:]
    base = Term(term.coeff, term.gexp, rest + (("dg", swapped),))
    if p == 0:
        return [base]  # symmetric innermost pair
    m = _fresh_name()
    if p == 1 and L == 3:
        a, b, c = idx
        corr = Term(
            term.coeff, term.gexp,
            rest + (("riem", (b, c, m, a)), ("dg", (m,))),
        )
        return [base, corr]
    if p == 1 and L == 4:
        a, b, c, d2 = idx
        corr1 = Term(
            term.coeff, term.gexp,
            rest + (("driem", (d2, b, c, m, a)), ("dg", (m,))),
        )
        corr2 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (b, c, m, a)), ("dg", (m, d2))),
        )
        return [base, corr1, corr2]
    if p == 2 and L == 4:
        a, b, c, d2 = idx
        corr1 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (c, d2, m, b)), ("dg", tuple(sorted((a, m))))),
        )
        corr2 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (c, d2, m, a)), ("dg", tuple(sorted((b, m))))),
        )
        return [base, corr1, corr2]
    raise TensorError(f"unsupported swap at position {p} in string of length {L}")


def _dg_reduction_step(term: Term):
    """One rewrite step on the first non-canonical dg factor, or None."""
    census = term.index_census()
    for fpos, (kind, idx) in enumerate(term.factors):
        if kind != "dg" or len(idx) < 2:
            continue
        internal = [x for x in set(idx) if idx.count(x) == 2]
        if internal:
            d0 = sorted(internal)[0]
            p1, p2 = [p for p, x in enumerate(idx) if x == d0][:2]
            if (p1, p2) == (0, 1):
                return []  # derivative of Delta G: harmonicity kills the term
            # bubble the trace pair toward the innermost slots, second
            # occurrence first so the pair travels adjacently
            if p2 > p1 + 1:
                return _swap_dg(term, fpos, p2 - 1)
            return _swap_dg(term, fpos, p1 - 1)
        # no internal trace: sort ascending
        for p in range(len(idx) - 1):
            if idx[p + 1] < idx[p]:
                return _swap_dg(term, fpos, p)
    # dric vanishes under the parallel-Ricci hypothesis
    for fpos, (kind, idx) in enumerate(term.factors):
        if kind == "dric":
            return []
    return None


def commute_and_reduce(expr: TensorExpr) -> TensorExpr:
    """Rewrite to the canonical fragment: sorted derivative strings, traces
    annihilated by harmonicity, dric killed by parallel Ricci, contracted
    driem eliminated through the second Bianchi identity."""
    pending = list(expr.terms)
    finished = []
    guard = 0
    while pending:
        guard += 1
        if guard > 200000:
            raise TensorError("reduction did not terminate")
        t = pending.pop()
        locals_ = _canon_local_fixpoint(t)
        if len(locals_) != 1 or locals_[0].factors != t.factors:
            pending.extend(locals_)
            continue
        t = locals_[0]
        # rename dummies canonically before choosing a rewrite, so the
        # reduction path (and hence the normal form) is independent of the
        # incidental dummy names carried by the input
        key, coeff = _canonical_term(t)
        t = Term(coeff, t.gexp, key[1])
        step = _dg_reduction_step(t)
        if step is None:
            finished.append(t)
        else:
            pending.extend(step)
    return normalize(TensorExpr(finished))


def gradG_pairing(expr: TensorExpr) -> TensorExpr:
    """g(grad G, grad expr): one appended derivative with a fresh dummy,
    contracted against the gradient of G, then reduced."""
    out = []
    for term in expr.terms:
        u = _fresh_name()
        items = list(term.factors)
        e = term.gexp
        for a, (kind, idx) in enumerate(items):
            if kind == "kron":
                continue
            if kind != "dg":
                raise TensorError(
                    "gradient pairing of curvature factors is outside the fragment"
                )
            if len(idx) >= 4:
                raise TensorError("derivative string length cap exceeded")
            rest = items[:a] + items[a + 1:]
            out.append(
                Term(term.coeff, e,
                     tuple(rest) + (("dg", idx + (u,)), ("dg", (u,))))
            )
        if e != 0:
            out.append(
                Term(
                    term.coeff * e,
                    e - 1,
                    tuple(items) + (("dg", (u,)), ("dg", (u,))),
                )
            )
    return commute_and_reduce(TensorExpr(out))


def laplacian(expr: TensorExpr) -> TensorExpr:
    """Formal Laplacian: two appended derivatives with a fresh dummy,
    Leibniz over all factors and the G power, then full reduction."""
    out = []
    for term in expr.terms:
        u = _fresh_name()
        items = list(term.factors)
        e = term.gexp

        def d1(kind, idx):
            if kind == "dg":
                if len(idx) >= 4:
                    raise TensorError("derivative string length cap exceeded")
                return ("dg", idx + (u,))
            if kind == "riem":
                return ("driem", (u,) + idx)
            if kind == "ric":
                return ("dric", (u,) + idx)
            if kind == "kron":
                return None  # metric is parallel
            raise TensorError(f"cannot differentiate factor kind {kind!r}")

        npos = len(items)
        # second derivatives of a single factor
        for a in range(npos):
            kind, idx = items[a]
            if kind == "dg":
                if len(idx) > 2:
                    raise TensorError("derivative string length cap exceeded")
                rest = items[:a] + items[a + 1:]
                out.append(Term(term.coeff, e, tuple(rest) + (("dg", idx + (u, u)),)))
            elif kind == "kron":
                continue
            else:
                raise TensorError(
                    f"Laplacian of curvature factors is outside the fragment"
                )
        # cross terms between distinct factors
        for a in range(npos):
            for b in range(a + 1, npos):
                da = d1(*items[a])
                db = d1(*items[b])
                if da is None or db is None:
                    continue
                rest = [it for q, it in enumerate(items) if q not in (a, b)]
                out.append(Term(2 * term.coeff, e, tuple(rest) + (da, db)))
        if e != 0:
            # G-power contributions
            out.append(
                Term(
                    term.coeff * e * (e - 1),
                    e - 2,
                    tuple(items) + (("dg", (u,)), ("dg", (u,))),
                )
            )
            out.append(
                Term(
                    term.coeff * e,
                    e - 1,
                    tuple(items) + (("dg", (u, u)),),
                )
            )
            # cross terms between the G power and each factor
            for a in range(npos):
                da = d1(*items[a])
                if da is None:
                    continue
                rest = [it for q, it in enumerate(items) if q != a]
                out.append(
                    Term(
                        2 * term.coeff * e,
                        e - 1,
                        tuple(rest) + (da, ("dg", (u,))),
                    )
                )
    return commute_and_reduce(TensorExpr(out))

"""Desk-scale cyclotomic Hecke algebra workbench over Q(zeta_e).

The algebra on generators T_0..T_{n-1} is realized through its left regular
representation.  The ambient coordinates are the normal-form labels J^a T_w
(exponents of the commuting Jucys-Murphy elements, symmetric-group words),
and T_g x is the linear extension of the per-label rows T_g J^a T_w, each
computed once per saturation by the product rules below.  A single-pass
spanning-set saturation from the identity word both finds the word basis
and reads off every generator matrix column.  It eliminates exactly over
Q(zeta_e), on labels in descending degree, nearly triangular: a product
outside the span of the words joins them, and one inside gives its column
as its exact coordinates.  When phi(e) = 1 it computes on ints, through the
ring isomorphism Z[zeta_e] -> Z, and stores `Cyc` entries.  The closure
must reach dimension l^n * n! exactly, and every defining relation must
vanish as a matrix.  Nothing is trusted to the straightening rules alone.
The rep stores only the charge, the words and the generator matrices: q =
zeta_e and Q_j = zeta_e^(s_j) are read off the charge where a check needs them.

Each check returns `AxiomReport`s: `check_relations` for the presentation,
`check_jm` for the Jucys-Murphy twist, commutation and centrality,
`central_characters` for the block spectrum, and `check_block_weights` for
the count of attained blocks against the weights of the rank-n shapes.
Every matrix here, from the saturation on, is a list of sparse rows
{column: nonzero entry}, multiplied by `mul_rows`; only `write_json`
densifies, one row at a time.  The spectrum is one call of
`joint_eigenspaces` on the JM elements J_i, which sums each block from its
residue sequences; no symmetric e_k is formed.  Its only exact work is each
J_i's minimal polynomial, split at the targets zeta^r.  Over F_p follow the
idempotents f and each dimension dim A f = tr R_f, from one trace functional:
that is d mod p, and 0 <= d < p.

Derived product rules, writing x = J_{i-1}, y = J_i, T = T_i:
    T x^a y^b = x^b y^a T - (q-1) * sum_{k=1..a-b} x^(a-k) y^(b+k)   (a >= b)
    T x^a y^b = x^b y^a T + (q-1) * sum_{k=1..b-a} x^(b-k) y^(a+k)   (a < b)
T_i commutes with every other J, and T_0 = J_0 commutes with all of them;
J_0^l reduces through the cyclotomic relation.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, combinations, count, islice, permutations, product, repeat
from math import factorial
from operator import mul

from . import _linalg
from .cyclotomic import Cyc, divmod_monic, mod_p, mul_rows, reduction_primes
from .multipartition import (
    Multicharge,
    Multipartition,
    boxes,
    enumerate_multipartitions,
    residue,
)
from .structure_analysis import AxiomReport
from .weight_lattice import wt

DEFAULT_DIM_BOUND = 200
# primes tried before the spectrum gives up and raises
CERTIFY_PRIMES = 3


def _swap_values(w: tuple[int, ...], a: int) -> tuple[int, ...]:
    # left multiplication by the simple reflection exchanging values a, a+1
    return tuple(a + 1 if x == a else a if x == a + 1 else x for x in w)


class _Engine:
    """Structure constants for left multiplication by generators."""

    def __init__(self, l: int, n: int, charge: Multicharge):
        self.l = l
        self.n = n
        self.e = charge.e
        q, one = Cyc.zeta(self.e), Cyc.one(self.e)
        # sigma[k - 1] = e_k(Q_1..Q_l), Q_j = zeta^(s_j): J_0^l reduces
        # through the cyclotomic relation prod_j (J_0 - Q_j) = 0
        sigma = _elementary([Cyc.zeta(self.e, s_j) for s_j in charge.s], one)
        if Cyc.degree(self.e) == 1:  # Z[zeta_e] = Z: coefficients are ints
            q, one, sigma = q.coeffs[0], 1, tuple(x.coeffs[0] for x in sigma)
        self.q, self.qm1, self.sigma, self.one = q, q - 1, sigma, one

    def mult_gen(self, g: int, label: tuple) -> dict:
        """T_g (label) by the product rules, as {label: coefficient}."""
        (exps, w), out = label, {}

        def emit(term, coeff):
            if term in out:
                coeff = out.pop(term) + coeff
            if coeff:
                out[term] = coeff

        if g == 0:
            a0 = exps[0] + 1
            if a0 < self.l:
                return {((a0,) + exps[1:], w): self.one}
            for k in range(1, self.l + 1):
                sigma = self.sigma[k - 1]
                emit(((self.l - k,) + exps[1:], w), sigma if k % 2 == 1 else -sigma)
            return out

        a, b = exps[g - 1], exps[g]
        swapped = exps[:g - 1] + (b, a) + exps[g + 1:]
        # main term: the generator passes the J-monomial and hits T_w
        value = g - 1  # reflection exchanges values g-1, g
        if w.index(value) < w.index(value + 1):
            emit((swapped, _swap_values(w, value)), self.one)
        else:
            emit((swapped, w), self.qm1)
            emit((swapped, _swap_values(w, value)), self.q)
        # spawned terms keep the word and redistribute the exponent pair
        if a != b:
            hi, lo = max(a, b), min(a, b)
            spawn = -self.qm1 if a > b else self.qm1
            for k in range(1, hi - lo + 1):
                emit((exps[:g - 1] + (hi - k, lo + k) + exps[g + 1:], w), spawn)
        return out


def _all_labels(l: int, n: int) -> list:
    """Labels (a, w) of J^a T_w by degree sum(a) + inv(w), descending, ties
    lexicographic (`sorted` is stable): T_g raises a term's degree by at most
    one, so elimination from the smallest column meets each word's top
    labels first.  No output depends on the order (`_saturate`)."""
    def degree(label: tuple) -> int:
        return sum(label[0]) + sum(x > y for x, y in combinations(label[1], 2))
    labels = product(product(range(l), repeat=n), permutations(range(n)))
    return sorted(labels, key=degree, reverse=True)


@dataclass
class FinDimAlgebraRep:
    """Generator matrices of the left regular representation of the Hecke
    algebra of `charge`, with q = zeta_e and Q_j = zeta_e^(s_j)."""

    charge: Multicharge
    words: tuple[tuple[int, ...], ...]
    gens: list  # per generator T_g, its rows {column: nonzero Cyc}
    _jm_cache: list | None = field(default=None, repr=False, compare=False)

    @property
    def l(self) -> int:
        return self.charge.level

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def dimension(self) -> int:
        return len(self.words)

    def word_labels(self) -> list[str]:
        return [
            "Id" if not w else "*".join(f"T{g}" for g in w) for w in self.words
        ]

    def zero(self) -> Cyc:
        return Cyc.zero(self.charge.e)

    def one(self) -> Cyc:
        return Cyc.one(self.charge.e)

    def write_json(self, out) -> None:
        """Write the JSON document, as `json.dumps` with separators (",", ":")
        and a newline would, to the text stream `out`, one dense generator
        row at a time; each distinct entry is encoded once."""
        dump = json.JSONEncoder(separators=(",", ":")).encode
        head = {"e": self.charge.e, "s": list(self.charge.s), "l": self.l, "n": self.n,
                "dimension": self.dimension, "words": self.word_labels()}
        zero, cells, dim = dump(self.zero().to_json()), {}, self.dimension
        out.write(dump(head)[:-1] + ',"generators":[')
        for g, mat in enumerate(self.gens):
            out.write(",[" if g else "[")
            for r, row in enumerate(mat):
                dense = [zero] * dim
                for c, x in row.items():
                    dense[c] = cells.get(x.coeffs) or cells.setdefault(x.coeffs, dump(x.to_json()))
                out.write((",[" if r else "[") + ",".join(dense) + "]")
            out.write("]")
        out.write("]}\n")


def checked_dimension(l: int, n: int, charge: Multicharge) -> int:
    """l^n * n!, the dimension `build_algebra` must reach; ValueError unless l, n
    and the bound (FOCK_MAX_DIM, else DEFAULT_DIM_BOUND) admit it."""
    if l != charge.level:
        raise ValueError(f"level mismatch: l={l} but charge has {charge.level}")
    if n < 1:
        raise ValueError("n must be at least 1")
    raw = os.environ.get("FOCK_MAX_DIM", str(DEFAULT_DIM_BOUND))
    try:
        max_dim = int(raw)
    except ValueError:
        raise ValueError(f"FOCK_MAX_DIM must be an integer, got {raw!r}") from None
    if any(f > max_dim for f in accumulate(range(1, n + 1), mul)):  # k! <= n! <= l^n n!
        raise ValueError(f"dimension overflow: l^n*n! >= {n}! exceeds bound {max_dim}")
    target = l**n * factorial(n)
    if target > max_dim:
        raise ValueError(f"dimension overflow: l^n*n! = {target} exceeds bound {max_dim}")
    return target


def build_algebra(l: int, n: int, charge: Multicharge) -> FinDimAlgebraRep:
    """Saturate words from the identity into the regular representation.

    Left-multiplies known basis words by generators breadth-first and
    reduces each product once against the current words, by exact sparse
    elimination over Q(zeta_e) (`_saturate`): a product in the span yields
    its generator matrix column, one outside it joins the basis as a unit
    column.  The closure dimension must equal l^n * n!; else it raises.
    """
    target = checked_dimension(l, n, charge)
    words, gens = _saturate(_Engine(l, n, charge), target)
    if len(words) != target:
        raise RuntimeError(
            f"closure dimension {len(words)} != l^n*n! = {target}; "
            "generator rules and presentation are inconsistent"
        )
    return FinDimAlgebraRep(charge, tuple(words), gens)


def _saturate(engine: _Engine, target: int):
    """(words, gens) of the greedy saturation, by one exact `SpanTracker`.

    Elements are sparse dicts over label indices (positions in `_all_labels`).
    T_g x extends linearly the rows T_g (label k), each asked of `mult_gen`
    the first time; a unit constant adds its term unmultiplied.

    Each product is `express`ed once: one outside the span of the words joins
    them, so the words stay independent, and one inside has exactly one
    coordinate vector over them: its column.  Columns in `_all_labels` order
    keep fill-in low.  The order only picks each echelon row's pivot, so
    words and gens do not depend on it.

    When phi(e) = 1, `engine` holds int constants: Cyc(e, (c,)) -> c is a
    ring isomorphism Z[zeta_e] -> Z, so the elimination is the same
    computation on ints (a Fraction only where a multiplier or an entry is
    not integral), and `gens` stores `Cyc` entries, equal to those of the
    `Cyc` computation.
    """
    labels, one = _all_labels(engine.l, engine.n), engine.one
    index = {lab: k for k, lab in enumerate(labels)}
    rows = [[None] * len(labels) for _ in range(engine.n)]  # rows[g][k] = T_g (label k)
    gens = [[{} for _ in range(target)] for _ in range(engine.n)]
    cells: dict = {}  # a number coordinate -> its Cyc, shared by equal entries

    def times(g: int, vec: dict) -> dict:
        out, rows_g = {}, rows[g]
        for k, c in vec.items():
            if (row := rows_g[k]) is None:
                row = rows_g[k] = {index[lab]: one if x == one else x
                                   for lab, x in engine.mult_gen(g, labels[k]).items()}
            for j, x in row.items():
                t = c if x is one else c * x
                if s := out[j] + t if j in out else t:
                    out[j] = s
                else:
                    del out[j]
        return out

    tracker = _linalg.SpanTracker()
    words: list[tuple[int, ...]] = [()]
    elements = [{index[((0,) * engine.n, tuple(range(engine.n)))]: one}]
    tracker.insert(elements[0])
    queue: deque = deque((g, 0) for g in range(engine.n))
    while queue:
        g, k = queue.popleft()
        vec = times(g, elements[k])
        if (coords := tracker.express(vec)) is None:
            coords = {len(words): one}
            queue.extend((h, len(words)) for h in range(engine.n))
            words.append((g,) + words[k])
            elements.append(vec)
        for r, c in coords.items():
            if not isinstance(c, Cyc):
                c = cells.get(c) or cells.setdefault(c, Cyc(engine.e, (c,)))
            gens[g][r][k] = c
    return words, gens


def _scale(rows: list, f: Cyc) -> list:
    return [{c: x * f for c, x in row.items()} for row in rows]


def check_relations(rep: FinDimAlgebraRep) -> list[AxiomReport]:
    """Evaluate every defining relation as a matrix identity, on sparse rows."""
    gens, e, zero = rep.gens, rep.charge.e, rep.zero()
    witnesses: list[dict] = []

    def shifted(g: int, c: Cyc) -> list:  # T_g - c, on the diagonal only
        return [_add(row, {r: -c}) for r, row in enumerate(gens[g])]

    def chain(*indices: int) -> list:
        return reduce(mul_rows, [gens[i] for i in indices])

    def witness(name: str, lhs: list, rhs=repeat({})) -> list[dict]:
        # lhs - rhs at the first entry, row-major, where lhs differs from rhs
        for r, (row, other) in enumerate(zip(lhs, rhs)):
            if row != other:
                c = min(c for c in row.keys() | other.keys() if row.get(c) != other.get(c))
                entry = row.get(c, zero) - other.get(c, zero)
                return [{"relation": name, "row": r, "col": c, "entry": str(entry)}]
        return []

    acc = reduce(mul_rows, [shifted(0, Cyc.zeta(e, sj)) for sj in rep.charge.s])
    witnesses += witness("cyclotomic_T0", acc)

    for i in range(1, rep.n):
        prod = mul_rows(shifted(i, -rep.one()), shifted(i, Cyc.zeta(e)))
        witnesses += witness(f"quadratic_T{i}", prod)

    if rep.n >= 2:
        witnesses += witness("braid_T0T1", chain(0, 1, 0, 1), chain(1, 0, 1, 0))

    for i in range(1, rep.n - 1):
        lhs, rhs = chain(i, i + 1, i), chain(i + 1, i, i + 1)
        witnesses += witness(f"braid_T{i}T{i + 1}", lhs, rhs)

    for i in range(rep.n):
        for j in range(i + 2, rep.n):
            witnesses += witness(f"commute_T{i}T{j}", chain(i, j), chain(j, i))

    return [AxiomReport("relations", tuple(witnesses))]


def jm_elements(rep: FinDimAlgebraRep) -> list:
    """J_0 = T_0 and J_i = q^{-1} T_i J_{i-1} T_i as sparse rows, cached on
    `rep`; invertible once `check_relations` passes: T_i^{-1} = q^{-1} (T_i -
    q + 1), and the cyclotomic relation of T_0 has constant term +-prod_j Q_j
    != 0."""
    if rep._jm_cache is None:
        gens, qinv = rep.gens, Cyc.zeta(rep.charge.e, -1)
        jms = [gens[0]]
        for i in range(1, rep.n):
            jms.append(_scale(mul_rows(mul_rows(gens[i], jms[-1]), gens[i]), qinv))
        rep._jm_cache = jms
    return rep._jm_cache


def _add(a: dict, b: dict) -> dict:
    """The sum of two sparse rows, without stored zeros."""
    out = {**a, **b}
    out.update((c, a[c] + b[c]) for c in a.keys() & b.keys())
    return {c: x for c, x in out.items() if x}


def _sym_applied(jms: list, rows: list) -> list:
    """e_0 x .. e_n x, e_k of the Jucys-Murphy matrices `jms`, for sparse rows
    x: out_k += J_i out_(k-1), J_i in descending index, so each term of e_k x
    is J_(i1) .. J_(ik) x with i1 < .. < ik, whether or not the J_i commute."""
    out = [rows] + [[{} for _ in rows] for _ in jms]
    for j, m in enumerate(reversed(jms), 1):
        for k in range(j, 0, -1):
            out[k] = list(map(_add, out[k], mul_rows(m, out[k - 1])))
    return out


def symmetric_jm(rep: FinDimAlgebraRep, k: int) -> list:
    """k-th elementary symmetric polynomial of the Jucys-Murphy matrices, as
    sparse rows."""
    if not 0 <= k <= rep.n:
        raise ValueError(f"k={k} out of 0..{rep.n}")
    return _sym_applied(jm_elements(rep), [{r: rep.one()} for r in range(rep.dimension)])[k]


def check_jm(rep: FinDimAlgebraRep) -> list[AxiomReport]:
    """The Jucys-Murphy structure as identities on the unit column e_0.

    `jm_twist`: T_i J_{i-1} T_i = q J_i; `jm_commute`: the J_i commute
    pairwise; `jm_centrality`: every symmetric JM element commutes with
    every generator.  Each side is applied to e_0, the identity word, as a
    chain of `mul_rows` matvecs, e_k by `_sym_applied`.  That decides the
    matrix identity when `check_relations` passes and the saturation reaches
    l^n * n!: the words then span the left regular module A with 1 as word
    0, so x in A is 0 exactly when x * 1 = 0.  On a rep whose relations fail
    the verdict certifies nothing.
    """
    gens, jms = rep.gens, jm_elements(rep)
    unit = [{0: rep.one()}] + [{} for _ in range(rep.dimension - 1)]

    def applied(*mats: list) -> list:  # mats[0] ... mats[-1] e_0
        return reduce(lambda v, m: mul_rows(m, v), reversed(mats), unit)

    twist_bad = [
        {"i": i}
        for i in range(1, rep.n)
        if applied(gens[i], jms[i - 1], gens[i]) != _scale(applied(jms[i]), Cyc.zeta(rep.charge.e))
    ]
    commute_bad = [
        {"i": i, "j": j}
        for i in range(rep.n)
        for j in range(i + 1, rep.n)
        if applied(jms[i], jms[j]) != applied(jms[j], jms[i])
    ]
    syms = _sym_applied(jms, unit)
    moved = [_sym_applied(jms, applied(gen)) for gen in gens]  # e_k T_g e_0
    central_bad = [
        {"k": k, "generator": g}
        for k in range(1, rep.n + 1)
        for g, gen in enumerate(gens)
        if moved[g][k] != mul_rows(gen, syms[k])
    ]
    return [
        AxiomReport("jm_twist", tuple(twist_bad)),
        AxiomReport("jm_commute", tuple(commute_bad)),
        AxiomReport("jm_centrality", tuple(central_bad)),
    ]


@dataclass(frozen=True)
class CentralCharacter:
    """Elementary symmetric values of the residue exponentials of a shape.

    Determined by the residue multiset: two shapes share a character exactly
    when their box residues agree with multiplicity.
    """

    e: int
    values: tuple[Cyc, ...]

    def to_json(self) -> list[list[str]]:
        return [v.to_json() for v in self.values]


def a_poly(mp: Multipartition, charge: Multicharge) -> CentralCharacter:
    """Character of a shape: e_k of {zeta^res(v) : v a box}, k = 1..rank."""
    roots = [Cyc.zeta(charge.e, residue(box, charge)) for box in boxes(mp)]
    return CentralCharacter(charge.e, _elementary(roots, Cyc.one(charge.e)))


def _elementary(roots: list, one: Cyc) -> tuple:
    """e_1 .. e_m of the m `roots`."""
    sym, zero = [one], one * 0
    for r in roots:
        sym = [a + b * r for a, b in zip(sym + [zero], [zero] + sym)]
    return tuple(sym[1:])


@dataclass(frozen=True)
class AttainedCharacter:
    character: CentralCharacter
    dimension: int
    members: tuple[Multipartition, ...]


@dataclass(frozen=True)
class CharacterSpectrum:
    """The attained blocks and the reports of `central_characters`."""

    attained: tuple[AttainedCharacter, ...]
    reports: tuple[AxiomReport, ...]


def _minimal_polynomial(rows: list, one: Cyc) -> list:
    """Ascending minimal polynomial of z in A, where `rows` are L_z's sparse
    rows, by Krylov on the identity word: f(L_z) e_0 = f(z), and A acts
    faithfully, so it is L_z's too.  Each z^k e_0 is reduced once, by one
    express: the first dependent one gives the coefficients."""
    tracker, vec, zero = _linalg.SpanTracker(), {0: one}, one * 0
    while (coords := tracker.express(vec)) is None:
        column = mul_rows(rows, [{0: vec[r]} if r in vec else {} for r in range(len(rows))])
        vec = {r: x[0] for r, x in enumerate(column) if x}
    return [-coords.get(i, zero) for i in range(tracker.dim)] + [one]


def _split_root(poly: list, c) -> tuple[int, list]:
    """The multiplicity a of c as a root of poly, and poly / (x - c)^a."""
    for a in count():
        quotient, (value,) = divmod_monic(poly, [-c, 1])  # value = poly(c)
        if value:
            return a, poly
        poly = quotient


def _idempotents(minimal: list, roots: dict, p: int, omega: int) -> dict:
    """pi_c mod p, c in `roots`, with pi_c(z) the idempotent onto a generalized
    eigenspace of L_z, m = `minimal` of z: for m = (x - c)^a g, roots[c] = (a,
    g), pi_c = 1 - (1 - g/g(c))^a mod m is 1 mod (x - c)^a and 0 mod g.  By
    CRT the pi_c sum to 1 exactly when m has no root outside `roots`.
    ZeroDivisionError when g(c) = 0 mod p."""
    m = [mod_p(x, p, omega) for x in minimal]

    def mul_mod(a: list, b: list) -> list:  # a * b mod m, deg m coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return [x % p for x in divmod_monic(out, m)[1]]

    pis = {}
    for c, (a, g) in roots.items():
        x_c, g = mod_p(c, p, omega), [mod_p(x, p, omega) for x in g]
        g_c = sum(x * pow(x_c, i, p) for i, x in enumerate(g)) % p
        if not g_c:  # pow(g_c, -1, p) would raise ValueError
            raise ZeroDivisionError(f"the cofactor vanishes at {c} mod {p}")
        inv = pow(g_c, -1, p)
        power, h = [1], [1 - g[0] * inv] + [-x * inv for x in g[1:]]
        for _ in range(a):
            power = mul_mod(power, h)
        pis[c] = [(1 - power[0]) % p] + [-x % p for x in power[1:]]
    return pis


def joint_eigenspaces(rep: FinDimAlgebraRep, mats: list, targets: list) -> dict:
    """Dimensions d_t > 0 of the joint generalized eigenspaces A e_t of the
    commuting right multiplications by z_k on the algebra A of `rep`, from
    mats[k] = L_{z_k} as sparse rows, keyed by tuples t of `targets`, t_k an
    eigenvalue of z_k.  They sum to dim A exactly when no z_k has a root
    outside `targets`: the missing mass is that of the other roots.

    Exactly over Q(zeta_e), z_k gets its minimal polynomial m_k, split at
    each target c into (x - c)^a g (`_split_root`).  The rest is over F_p,
    p = 1 (mod e): the idempotent polynomials pi_{k,c} (`_idempotents`),
    e_t = prod_k pi_{k,t_k}(z_k), idempotent as the z_k commute
    (`jm_commute`), and d_t = tr R_{e_t} = dim A e_t (`_traces`), as R_f is
    idempotent with image A f.  That is d_t mod p, and d_t <= dim A < p.  A
    prime that does not reduce the input, or where some g(c) = 0, is skipped;
    after CERTIFY_PRIMES primes this raises RuntimeError."""
    one, splits, targets = rep.one(), [], dict.fromkeys(targets)
    for mat in mats:
        minimal = _minimal_polynomial(mat, one)
        roots = {c: split for c in targets if (split := _split_root(minimal, c))[0]}
        splits.append((minimal, roots))
    for p, omega in islice(reduction_primes(rep.charge.e), CERTIFY_PRIMES):
        try:
            pis = [_idempotents(*split, p, omega) for split in splits]
            return _traces(rep, mats, pis, p, omega)
        except ZeroDivisionError:  # an entry off Z_(p)[zeta_e], or g(c) = 0 mod p
            continue
    raise RuntimeError(f"none of {CERTIFY_PRIMES} primes reduces the spectrum's input")


def _traces(rep: FinDimAlgebraRep, mats: list, pis: list, p: int, omega: int) -> dict:
    """`joint_eigenspaces` over F_p, zeta_e -> omega, from the idempotent
    polynomials `pis` mod p: the vectors e_t * 1 prefix by prefix, sharing
    the powers z_k^j v of a prefix vector v; a v = 0 is dropped, as its
    extensions have d = 0 mod p, and a v != 0 has d > 0.  Then d = rho(e_t)
    for the trace functional rho(x) = tr R_x = sum_i (b_i x)_i, one row
    vector per call: rho = V_0, V_j = e_j + sum V_i T_g over the words[i] =
    (g,) + words[j], from the last word to the first (the words are
    breadth-first), each V_j a sparse dict: most are near the leaves.  An
    operator with no target root extends no prefix."""

    def apply(rows: list, v: list) -> list:
        return [sum(map(mul, vals, map(v.__getitem__, cols))) % p for cols, vals in rows]

    vectors = {(): [1] + [0] * (rep.dimension - 1)}
    for mat, pi_of in zip(mats, pis):
        rows = [(tuple(row), tuple(mod_p(x, p, omega) for x in row.values())) for row in mat]
        grown = {}
        for prefix, v in vectors.items():
            powers = [v]
            for _ in range(max(map(len, pi_of.values()), default=1) - 1):
                powers.append(apply(rows, powers[-1]))
            for t, pi in pi_of.items():
                w = [sum(map(mul, pi, col)) % p for col in zip(*powers)]
                if any(w):
                    grown[prefix + (t,)] = w
        vectors = grown

    gens = [[{c: mod_p(x, p, omega) for c, x in row.items()} for row in g] for g in rep.gens]
    parent = {word: j for j, word in enumerate(rep.words)}
    V = [{i: 1} for i in range(rep.dimension)]  # e_i, then V_i once its children are in
    for word in reversed(rep.words[1:]):
        gen, out = gens[word[0]], V[parent[word[1:]]]
        for r, x in V.pop().items():
            for c, y in gen[r].items():
                out[c] = (out.get(c, 0) + x * y) % p
    (rho,) = V
    return {t: sum(x * e[c] for c, x in rho.items()) % p for t, e in vectors.items()}


def central_characters(
    rep: FinDimAlgebraRep, n: int, charge: Multicharge
) -> CharacterSpectrum:
    """Joint generalized eigenspaces of the symmetric Jucys-Murphy elements.

    Candidate characters chi are read off the rank-n shapes.  The e_k are
    polynomials in the J_i, so d_t, t = e(zeta^(i_1), .., zeta^(i_n)), sums
    the dimensions d(i) of `joint_eigenspaces` on the J_i, exact by
    construction.  The d(i) fall short of dim A exactly when some J_i has a
    root that is no zeta^r; then every e_k may have any eigenvalue.
    `spectral_support` fails at k when that holds, or when some d_t > 0 has
    a t_k that is no candidate's: e_k has an eigenvalue that is no
    candidate's.  `spectral_mass` requires the d_chi to sum to l^n * n!.
    Another n, level or e than rep's raises ValueError; another s is allowed.
    """
    if (n, charge.level, charge.e) != (rep.n, rep.l, rep.charge.e):
        raise ValueError(f"rep was built for n={rep.n}, l={rep.l}, e={rep.charge.e}; "
                         f"asked for n={n}, l={charge.level}, e={charge.e}")
    candidates: dict[CentralCharacter, list[Multipartition]] = {}
    for mp in enumerate_multipartitions(n, rep.l):
        candidates.setdefault(a_poly(mp, charge), []).append(mp)

    e, values = rep.charge.e, [{char.values[k] for char in candidates} for k in range(n)]
    sequences = joint_eigenspaces(rep, jm_elements(rep), [Cyc.zeta(e, r) for r in range(e)])
    dims: dict = {}
    for seq, d in sequences.items():
        t = _elementary(seq, rep.one())
        dims[t] = dims.get(t, 0) + d
    foreign = sum(dims.values()) < rep.dimension
    attained = tuple(
        AttainedCharacter(char, dims[char.values], tuple(members))
        for char, members in candidates.items()
        if char.values in dims
    )
    support = [
        {"k": k + 1, "nilpotent": False}
        for k in range(n)
        if foreign or any(t[k] not in values[k] for t in dims)
    ]
    total, dim = sum(a.dimension for a in attained), rep.dimension
    mass = [] if total == dim else [{"total_generalized_dim": total, "expected": dim}]
    return CharacterSpectrum(attained, (
        AxiomReport("spectral_mass", tuple(mass)),
        AxiomReport("spectral_support", tuple(support)),
    ))


def check_block_weights(
    spectrum: CharacterSpectrum, n: int, charge: Multicharge
) -> list[AxiomReport]:
    """The attained characters must be as many as the distinct weights of the
    rank-n shapes.  That is the whole check: equal characters mean equal
    residue multisets (the zeta^r, r mod e, are distinct), and so do equal
    weights (the alpha_i are independent once delta is a coordinate)."""
    attained = len(spectrum.attained)
    distinct = len({wt(mp, charge) for mp in enumerate_multipartitions(n, charge.level)})
    witness = {"attained_characters": attained, "distinct_weights": distinct}
    return [AxiomReport("block_weights", () if attained == distinct else (witness,))]

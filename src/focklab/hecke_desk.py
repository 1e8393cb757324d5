"""Desk-scale cyclotomic Hecke algebra workbench over Q(zeta_e).

The algebra on generators T_0..T_{n-1} is realized through its left regular
representation.  Products against a normal-form coordinate space (exponent
vectors of the commuting Jucys-Murphy elements times symmetric-group words)
provide the ambient coordinates; a single-pass spanning-set saturation from
the identity word both finds the word basis and reads off every generator
matrix column.  It eliminates over F_p, p = 1 (mod e), and certifies each
decision over Q(zeta_e): a new word by its independence mod p, a column by
an exact solve on the few words of its F_p support.  The closure must reach
dimension l^n * n! exactly, and every defining relation must vanish as a
matrix.  Nothing is trusted to the straightening rules alone.

Each check returns `AxiomReport`s: `check_relations` for the presentation,
`check_jm` for the Jucys-Murphy twist, commutation and centrality,
`central_characters` for the block spectrum, and `check_block_weights` for
the match between attained characters and affine weights of the rank-n
shapes.  The spectrum is one call of `joint_eigenspaces` on the symmetric JM
elements e_k.  Its only exact work is the minimal polynomial of each e_k and
its idempotent polynomials at the target values.  Each joint generalized
eigenspace dimension d is the trace of right multiplication by a product of
those idempotents, taken over F_p: that is d mod p, and 0 <= d < p.

Derived product rules, writing x = J_{i-1}, y = J_i, T = T_i:
    T x^a y^b = x^b y^a T - (q-1) * sum_{k=1..a-b} x^(a-k) y^(b+k)   (a >= b)
    T x^a y^b = x^b y^a T + (q-1) * sum_{k=1..b-a} x^(b-k) y^(a+k)   (a < b)
T_i commutes with every other J, and T_0 = J_0 commutes with all of them;
J_0^l reduces through the cyclotomic relation.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import count, islice
from math import factorial

from . import _linalg
from .cyclotomic import Cyc, mat_mul_cyc, mod_p, reduction_primes
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
# primes tried before a saturation or a spectrum gives up and raises
CERTIFY_PRIMES = 3

Matrix = list  # list[list[Cyc]]


@dataclass(frozen=True)
class HeckeParams:
    """The Hecke parameters: q = zeta_e and the cyclotomic Q_j = zeta_e^(s_j)."""

    q: Cyc
    q_list: tuple[Cyc, ...]


def params_from_charge(charge: Multicharge) -> HeckeParams:
    return HeckeParams(
        q=Cyc.zeta(charge.e),
        q_list=tuple(Cyc.zeta(charge.e, sp) for sp in charge.s),
    )


def _identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _swap_values(w: tuple[int, ...], a: int) -> tuple[int, ...]:
    # left multiplication by the simple reflection exchanging values a, a+1
    return tuple(a + 1 if x == a else a if x == a + 1 else x for x in w)


class _Engine:
    """Structure constants for left multiplication by generators."""

    def __init__(self, l: int, n: int, charge: Multicharge):
        self.l = l
        self.n = n
        self.e = charge.e
        self.q = params_from_charge(charge).q
        self.qm1 = self.q - 1
        # sigma[k - 1] = e_k(q_1..q_l), for J_0^l: q_j = zeta^(s_j) is the
        # residue exponential of the box (1, 1) of component j, so these are
        # the character values of the shape with one box per component
        self.sigma = a_poly(Multipartition(((1,),) * l), charge).values

    def identity_element(self) -> dict:
        return {((0,) * self.n, _identity_perm(self.n)): Cyc.one(self.e)}

    def mult_gen(self, g: int, element: dict) -> dict:
        out: dict = {}

        def emit(label, coeff):
            if not coeff:
                return
            acc = out.get(label)
            total = coeff if acc is None else acc + coeff
            if total:
                out[label] = total
            elif acc is not None:
                del out[label]

        for (exps, w), c in element.items():
            if g == 0:
                a0 = exps[0] + 1
                if a0 < self.l:
                    emit(((a0,) + exps[1:], w), c)
                else:
                    for k in range(1, self.l + 1):
                        sign = 1 if k % 2 == 1 else -1
                        emit(
                            ((self.l - k,) + exps[1:], w),
                            c * self.sigma[k - 1] * sign,
                        )
                continue

            a, b = exps[g - 1], exps[g]
            swapped = list(exps)
            swapped[g - 1], swapped[g] = b, a
            swapped = tuple(swapped)
            # main term: the generator passes the J-monomial and hits T_w
            value = g - 1  # reflection exchanges values g-1, g
            if w.index(value) < w.index(value + 1):
                emit((swapped, _swap_values(w, value)), c)
            else:
                emit((swapped, w), c * self.qm1)
                emit((swapped, _swap_values(w, value)), c * self.q)
            # spawned terms keep the word and redistribute the exponent pair
            if a > b:
                for k in range(1, a - b + 1):
                    spawned = list(exps)
                    spawned[g - 1], spawned[g] = a - k, b + k
                    emit((tuple(spawned), w), -(c * self.qm1))
            elif a < b:
                for k in range(1, b - a + 1):
                    spawned = list(exps)
                    spawned[g - 1], spawned[g] = b - k, a + k
                    emit((tuple(spawned), w), c * self.qm1)
        return out


def _all_labels(l: int, n: int) -> list:
    exps: list[tuple[int, ...]] = [()]
    for _ in range(n):
        exps = [t + (v,) for t in exps for v in range(l)]
    perms = _permutations_sorted(n)
    return sorted((a, w) for a in exps for w in perms)


def _permutations_sorted(n: int) -> list[tuple[int, ...]]:
    from itertools import permutations

    return sorted(permutations(range(n)))


@dataclass
class FinDimAlgebraRep:
    """Generator matrices of the left regular representation."""

    l: int
    n: int
    charge: Multicharge
    params: HeckeParams
    dimension: int
    words: tuple[tuple[int, ...], ...]
    gens: list  # list of dimension x dimension matrices over Cyc
    _jm_cache: list | None = field(default=None, repr=False, compare=False)
    _sym_cache: list | None = field(default=None, repr=False, compare=False)

    def word_labels(self) -> list[str]:
        return [
            "Id" if not w else "*".join(f"T{g}" for g in w) for w in self.words
        ]

    def zero(self) -> Cyc:
        return Cyc.zero(self.charge.e)

    def one(self) -> Cyc:
        return Cyc.one(self.charge.e)

    def identity_matrix(self) -> Matrix:
        return _linalg.mat_identity(self.dimension, self.zero(), self.one())

    def to_json(self) -> dict:
        return {
            "e": self.charge.e,
            "s": list(self.charge.s),
            "l": self.l,
            "n": self.n,
            "dimension": self.dimension,
            "words": self.word_labels(),
            "generators": [
                [[entry.to_json() for entry in row] for row in mat]
                for mat in self.gens
            ],
        }


def build_algebra(
    l: int, n: int, charge: Multicharge, max_dim: int | None = None
) -> FinDimAlgebraRep:
    """Saturate words from the identity into a certified regular representation.

    Left-multiplies known basis words by generators breadth-first and
    reduces each product once against the current words, by sparse
    elimination over F_p (`_saturate`), every decision certified over
    Q(zeta_e): a product in the span yields its column of the generator
    matrix, one outside it joins the basis as a unit column.  A prime whose
    certificate fails is replaced by the next; after CERTIFY_PRIMES primes
    this raises RuntimeError.  The closure dimension must equal l^n * n!;
    any other outcome raises.
    """
    if l != charge.level:
        raise ValueError(f"level mismatch: l={l} but charge has {charge.level}")
    if n < 1:
        raise ValueError("n must be at least 1")
    target = l**n * factorial(n)
    if max_dim is None:
        max_dim = int(os.environ.get("FOCK_MAX_DIM", DEFAULT_DIM_BOUND))
    if target > max_dim:
        raise ValueError(
            f"dimension overflow: l^n*n! = {target} exceeds bound {max_dim}"
        )

    engine = _Engine(l, n, charge)
    for p, omega in islice(reduction_primes(charge.e), CERTIFY_PRIMES):
        try:
            saturated = _saturate(engine, target, p, omega)
        except ZeroDivisionError:  # an entry off Z_(p)[zeta_e]
            continue
        if saturated is not None:
            break
    else:
        raise RuntimeError(f"saturation not certified by {CERTIFY_PRIMES} primes")
    words, gens = saturated
    if len(words) != target:
        raise RuntimeError(
            f"closure dimension {len(words)} != l^n*n! = {target}; "
            "generator rules and presentation are inconsistent"
        )

    return FinDimAlgebraRep(
        l=l,
        n=n,
        charge=charge,
        params=params_from_charge(charge),
        dimension=target,
        words=tuple(words),
        gens=gens,
    )


def _saturate(engine: _Engine, target: int, p: int, omega: int):
    """(words, gens) of the exact saturation, found over F_p, zeta_e -> omega,
    or None when a certificate fails at p.

    The engine's coefficients lie in Z[zeta_e], so every product reduces.  A
    product outside the F_p span of the words joins them: the words stay
    independent mod p, and reduction cannot raise a rank, so it is outside
    their exact span too.  A product inside is solved exactly on the words
    of its F_p support alone; those are independent, so a solution gives its
    unique exact coordinates, and there is none when the product is outside
    the exact span or a true coordinate vanished mod p.
    """
    index = {lab: k for k, lab in enumerate(_all_labels(engine.l, engine.n))}
    zero, one = Cyc.zero(engine.e), Cyc.one(engine.e)
    gens = [[[zero] * target for _ in range(target)] for _ in range(engine.n)]

    def sparse(element: dict) -> dict:
        return {index[lab]: c for lab, c in element.items()}

    def reduce(vec: dict) -> dict:
        return {r: mod_p(c, p, omega) for r, c in vec.items()}

    tracker = _linalg.SpanTracker(p)
    words: list[tuple[int, ...]] = [()]
    elements = [engine.identity_element()]
    tracker.insert(reduce(sparse(elements[0])))
    queue: deque = deque((g, 0) for g in range(engine.n))
    while queue:
        g, k = queue.popleft()
        product = engine.mult_gen(g, elements[k])
        vec = sparse(product)
        coords = tracker.express(reduced := reduce(vec))
        if coords is None:
            tracker.insert(reduced)
            coords = {len(words): one}
            queue.extend((h, len(words)) for h in range(engine.n))
            words.append((g,) + words[k])
            elements.append(product)
        else:
            support = sorted(coords)
            solve = _linalg.SpanTracker()
            for r in support:
                solve.insert(sparse(elements[r]))
            if (coords := solve.express(vec)) is None:
                return None
            coords = {support[i]: c for i, c in coords.items()}
        for r, c in coords.items():
            gens[g][r][k] = c
    return words, gens


def _nonzero_witness(name: str, lhs: Matrix, rhs: Matrix | None = None) -> list[dict]:
    """lhs - rhs at the first entry where lhs differs from rhs (zero by default)."""
    for r, row in enumerate(lhs):
        for c, (x, y) in enumerate(zip(row, rhs[r] if rhs else [0] * len(row))):
            if x != y:
                return [{"relation": name, "row": r, "col": c, "entry": str(x - y)}]
    return []


def check_relations(rep: FinDimAlgebraRep) -> list[AxiomReport]:
    """Evaluate every defining relation as a matrix identity."""
    gens = rep.gens
    q = rep.params.q
    witnesses: list[dict] = []

    def shifted(g: int, c: Cyc) -> Matrix:  # T_g - c, on the diagonal only
        return [row[:r] + [row[r] - c] + row[r + 1:] for r, row in enumerate(gens[g])]

    acc = shifted(0, rep.params.q_list[0])
    for qp in rep.params.q_list[1:]:
        acc = mat_mul_cyc(acc, shifted(0, qp))
    witnesses += _nonzero_witness("cyclotomic_T0", acc)

    for i in range(1, rep.n):
        prod = mat_mul_cyc(shifted(i, -rep.one()), shifted(i, q))
        witnesses += _nonzero_witness(f"quadratic_T{i}", prod)

    if rep.n >= 2:
        lhs = _chain(rep, [0, 1, 0, 1])
        rhs = _chain(rep, [1, 0, 1, 0])
        witnesses += _nonzero_witness("braid_T0T1", lhs, rhs)

    for i in range(1, rep.n - 1):
        lhs = _chain(rep, [i, i + 1, i])
        rhs = _chain(rep, [i + 1, i, i + 1])
        witnesses += _nonzero_witness(f"braid_T{i}T{i + 1}", lhs, rhs)

    for i in range(rep.n):
        for j in range(i + 2, rep.n):
            lhs = mat_mul_cyc(gens[i], gens[j])
            rhs = mat_mul_cyc(gens[j], gens[i])
            witnesses += _nonzero_witness(f"commute_T{i}T{j}", lhs, rhs)

    return [AxiomReport("relations", tuple(witnesses))]


def _chain(rep: FinDimAlgebraRep, indices: list[int]) -> Matrix:
    out = rep.gens[indices[0]]
    for i in indices[1:]:
        out = mat_mul_cyc(out, rep.gens[i])
    return out


def jm_elements(rep: FinDimAlgebraRep) -> list[Matrix]:
    """J_0 = T_0 and J_i = q^{-1} T_i J_{i-1} T_i, invertible once `check_relations`
    passes: T_i^{-1} = q^{-1} (T_i - q + 1), and the cyclotomic relation of T_0
    has constant term +-prod_j Q_j != 0."""
    if rep._jm_cache is not None:
        return rep._jm_cache
    qinv = rep.params.q.inverse()
    out = [rep.gens[0]]
    for i in range(1, rep.n):
        m = mat_mul_cyc(rep.gens[i], out[-1])
        m = mat_mul_cyc(m, rep.gens[i])
        out.append(_linalg.mat_scale(m, qinv))
    rep._jm_cache = out
    return out


def symmetric_jm(rep: FinDimAlgebraRep, k: int) -> Matrix:
    """k-th elementary symmetric polynomial of the Jucys-Murphy matrices."""
    if not 0 <= k <= rep.n:
        raise ValueError(f"k={k} out of 0..{rep.n}")
    if rep._sym_cache is None:
        rep._sym_cache = _elementary_symmetric_matrices(rep, jm_elements(rep))
    return rep._sym_cache[k]


def _elementary_symmetric_matrices(
    rep: FinDimAlgebraRep, mats: list[Matrix]
) -> list[Matrix]:
    table = [rep.identity_matrix()]
    for m in mats:
        table.append(mat_mul_cyc(table[-1], m))
        for k in range(len(table) - 2, 0, -1):
            table[k] = _matrix_add(table[k], mat_mul_cyc(table[k - 1], m))
    return table


def _matrix_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _commutes(a: Matrix, b: Matrix) -> bool:
    return mat_mul_cyc(a, b) == mat_mul_cyc(b, a)


def check_jm(rep: FinDimAlgebraRep) -> list[AxiomReport]:
    """The Jucys-Murphy structure as matrix identities.

    `jm_twist`: T_i J_{i-1} T_i = q J_i; `jm_commute`: the J_i commute
    pairwise; `jm_centrality`: every symmetric JM element commutes with
    every generator.
    """
    jms = jm_elements(rep)
    twist_bad = [
        {"i": i}
        for i in range(1, rep.n)
        if mat_mul_cyc(mat_mul_cyc(rep.gens[i], jms[i - 1]), rep.gens[i])
        != _linalg.mat_scale(jms[i], rep.params.q)
    ]
    commute_bad = [
        {"i": i, "j": j}
        for i in range(rep.n)
        for j in range(i + 1, rep.n)
        if not _commutes(jms[i], jms[j])
    ]
    central_bad = [
        {"k": k, "generator": g}
        for k in range(1, rep.n + 1)
        for g, gen in enumerate(rep.gens)
        if not _commutes(symmetric_jm(rep, k), gen)
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

    @property
    def n(self) -> int:
        return len(self.values)

    def poly_string(self) -> str:
        terms = [f"z^{self.n}" if self.n > 1 else "z"]
        for k, v in enumerate(self.values, start=1):
            if not v:
                continue
            sign = -v if k % 2 == 1 else v
            power = self.n - k
            mono = "" if power == 0 else ("*z" if power == 1 else f"*z^{power}")
            terms.append(f"+ ({sign}){mono}")
        return " ".join(terms)

    def to_json(self) -> list[list[str]]:
        return [v.to_json() for v in self.values]


def a_poly(mp: Multipartition, charge: Multicharge) -> CentralCharacter:
    """Character of a shape: e_k of {zeta^res(v) : v a box}, k = 1..rank."""
    roots = [Cyc.zeta(charge.e, residue(box, charge)) for box in boxes(mp)]
    sym = [Cyc.one(charge.e)]
    for r in roots:
        sym.append(Cyc.zero(charge.e))
        for k in range(len(sym) - 1, 0, -1):
            sym[k] = sym[k] + sym[k - 1] * r
    return CentralCharacter(charge.e, tuple(sym[1:]))


@dataclass(frozen=True)
class AttainedCharacter:
    character: CentralCharacter
    dimension: int
    members: tuple[Multipartition, ...]


@dataclass(frozen=True)
class CharacterSpectrum:
    dimension: int
    attained: tuple[AttainedCharacter, ...]
    reports: tuple[AxiomReport, ...]


def _minimal_polynomial(mat: Matrix, one: Cyc) -> list:
    """Ascending minimal polynomial of z in A, where mat = L_z, by Krylov on the
    identity word: f(L_z) e_0 = f(z), and A acts faithfully, so it is L_z's too."""
    tracker, vec, zero = _linalg.SpanTracker(), {0: one}, one * 0
    while (coords := tracker.express(vec)) is None:
        tracker.insert(vec)
        column = mat_mul_cyc(mat, [[vec.get(r, zero)] for r in range(len(mat))])
        vec = {r: x for r, (x,) in enumerate(column) if x}
    return [-coords.get(i, zero) for i in range(tracker.dim)] + [one]


def _split_root(poly: list, c) -> tuple[int, list]:
    """The multiplicity a of c as a root of poly, and poly / (x - c)^a."""
    for a in count():
        quotient = [poly[-1]]  # synthetic division; the last entry is poly(c)
        for coeff in reversed(poly[:-1]):
            quotient.append(coeff + c * quotient[-1])
        if quotient.pop():
            return a, poly
        poly = quotient[::-1]


def _mul_mod(a: list, b: list, m: list) -> list:
    """a * b modulo the monic m, as deg m ascending coefficients."""
    d = len(m) - 1
    out = [m[0] * 0] * max(len(a) + len(b) - 1, d)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > d:  # x^d = -(m_0 + m_1 x + ... + m_(d-1) x^(d-1))
        f = out.pop()
        for i, y in enumerate(m[:-1], len(out) - d):
            out[i] -= f * y
    return out


def _idempotents(minimal: list, values: list) -> dict:
    """pi_c, c in values or None, with pi_c(z) the idempotent onto a generalized
    eigenspace of L_z, m = `minimal` of z: for m = (x - c)^a g, pi_c =
    1 - (1 - g/g(c))^a mod m is 1 mod (x - c)^a and 0 mod g, and pi_None =
    1 - sum of the pi_c is kept when nonzero."""
    one = minimal[-1]
    rest = [one] + [one * 0] * (len(minimal) - 2)
    pis = {}
    for c in dict.fromkeys(values):
        a, g = _split_root(minimal, c)
        if a:
            inv = 1 / sum(x * c**i for i, x in enumerate(g))
            power, h = [one], [1 - g[0] * inv] + [-x * inv for x in g[1:]]
            for _ in range(a):
                power = _mul_mod(power, h, minimal)
            pis[c] = [1 - power[0]] + [-x for x in power[1:]]
            rest = [x - y for x, y in zip(rest, pis[c])]
    if any(rest):
        pis[None] = rest
    return pis


def joint_eigenspaces(rep: FinDimAlgebraRep, mats: list, targets: list) -> dict:
    """Dimensions d_t > 0 of the joint generalized eigenspaces of commuting
    left multiplications mats[k] = L_{z_k} on the algebra A of `rep`, keyed
    by tuples t: t_k a value of targets[k], or None for the other roots.

    Exactly over Q(zeta_e), z_k gets its minimal polynomial and from it the
    idempotent polynomials pi_{k,c} (`_idempotents`).  Then e_t = prod_k
    pi_{k,t_k}(z_k) is idempotent and d_t = tr R_{e_t} = dim A e_t: the
    eigenspace e_t A when e_t is central, as `jm_centrality` checks for the
    block spectrum; for f = pi(J_i), dim A f = dim f A, as the
    anti-involution T_j -> T_j fixes J_i.  The trace is taken over F_p,
    p = 1 (mod e) (`_traces`): reduction mod p is a ring map, so it gives
    d_t mod p, and d_t <= dim A < p.  A prime that does not reduce the input
    is skipped; after CERTIFY_PRIMES primes this raises RuntimeError."""
    one = rep.one()
    pis = [_idempotents(_minimal_polynomial(m, one), v) for m, v in zip(mats, targets)]
    for p, omega in islice(reduction_primes(rep.charge.e), CERTIFY_PRIMES):
        try:
            return _traces(rep, mats, pis, p, omega)
        except ZeroDivisionError:  # an entry off Z_(p)[zeta_e]
            continue
    raise RuntimeError(f"none of {CERTIFY_PRIMES} primes reduces the spectrum's input")


def _traces(rep: FinDimAlgebraRep, mats: list, pis: list, p: int, omega: int) -> dict:
    """`joint_eigenspaces` over F_p, zeta_e -> omega: the vectors e_t * 1
    prefix by prefix, sharing the powers z_k^j v of a prefix vector v; a
    v = 0 is dropped, as its extensions have d = 0 mod p, and a v != 0 has
    d > 0.  Then d = tr R_e = sum_i (b_i e)_i, b_i e = T_g (b_j e) for
    words[i] = (g,) + words[j]."""

    def sparse(m: Matrix) -> list:
        return [[(c, mod_p(x, p, omega)) for c, x in enumerate(row) if x] for row in m]

    def apply(rows: list, v: list) -> list:
        return [sum(x * v[c] for c, x in row) % p for row in rows]

    vectors = {(): [1] + [0] * (rep.dimension - 1)}
    for mat, pi_of in zip(mats, pis):
        rows = sparse(mat)
        reduced = {t: [mod_p(x, p, omega) for x in pi] for t, pi in pi_of.items()}
        grown = {}
        for prefix, v in vectors.items():
            powers = [v]
            for _ in range(max(map(len, reduced.values())) - 1):
                powers.append(apply(rows, powers[-1]))
            for t, pi in reduced.items():
                w = [sum(c * x for c, x in zip(pi, col)) % p for col in zip(*powers)]
                if any(w):
                    grown[prefix + (t,)] = w
        vectors = grown

    gens = [sparse(g) for g in rep.gens]
    parent = {word: j for j, word in enumerate(rep.words)}
    dims = {}
    for t, e in vectors.items():
        images = [e]
        for word in rep.words[1:]:
            images.append(apply(gens[word[0]], images[parent[word[1:]]]))
        dims[t] = sum(b_e[i] for i, b_e in enumerate(images)) % p
    return dims


def central_characters(
    rep: FinDimAlgebraRep, n: int, charge: Multicharge
) -> CharacterSpectrum:
    """Joint generalized eigenspaces of the symmetric Jucys-Murphy elements.

    Candidate characters chi are read off the rank-n shapes, and
    `joint_eigenspaces` takes e_1..e_n with the candidate values of each e_k
    as targets: d_chi is the dimension at the tuple chi, exact by construction.
    `spectral_support` fails at k when a tuple with None at k has positive
    dimension: e_k has an eigenvalue that is no candidate's.
    `spectral_mass` requires the d_chi to sum to l^n * n!.
    """
    if n != rep.n:
        raise ValueError(f"rep was built for n={rep.n}, asked for n={n}")
    candidates: dict[CentralCharacter, list[Multipartition]] = {}
    for mp in enumerate_multipartitions(n, rep.l):
        candidates.setdefault(a_poly(mp, charge), []).append(mp)

    dims = joint_eigenspaces(
        rep,
        [symmetric_jm(rep, k + 1) for k in range(n)],
        [list(dict.fromkeys(char.values[k] for char in candidates)) for k in range(n)],
    )
    attained = tuple(
        AttainedCharacter(char, dims[char.values], tuple(members))
        for char, members in candidates.items()
        if char.values in dims
    )
    support = [
        {"k": k + 1, "nilpotent": False}
        for k in range(n)
        if any(t[k] is None for t in dims)
    ]
    total, dim = sum(a.dimension for a in attained), rep.dimension
    mass = [] if total == dim else [{"total_generalized_dim": total, "expected": dim}]
    return CharacterSpectrum(dim, attained, (
        AxiomReport("spectral_mass", tuple(mass)),
        AxiomReport("spectral_support", tuple(support)),
    ))


def check_block_weights(
    spectrum: CharacterSpectrum, n: int, charge: Multicharge
) -> list[AxiomReport]:
    """Blocks against affine weights: one attained character per distinct
    weight of the rank-n shapes, and two shapes share a character exactly
    when they share a weight.
    """
    shapes = enumerate_multipartitions(n, charge.level)
    chars = [a_poly(mp, charge) for mp in shapes]
    weights = [wt(mp, charge) for mp in shapes]
    distinct = len(set(weights))
    witnesses = []
    if len(spectrum.attained) != distinct:
        witnesses.append(
            {"attained_characters": len(spectrum.attained),
             "distinct_weights": distinct}
        )
    for a in range(len(shapes)):
        for b in range(a + 1, len(shapes)):
            same_char = chars[a] == chars[b]
            same_wt = weights[a] == weights[b]
            if same_char != same_wt:
                witnesses.append(
                    {"mp1": shapes[a].to_lists(), "mp2": shapes[b].to_lists(),
                     "same_character": same_char, "same_weight": same_wt}
                )
    return [AxiomReport("block_weights", tuple(witnesses))]

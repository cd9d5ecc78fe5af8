"""Catalog of congruence families and dissection identities, plus the
engines that check them with exact (or exactly-reduced) arithmetic.

Every cataloged claim is treated as a hypothesis: a run never aborts on a
counterexample.  A failing case is reported with the offending indices,
the coefficient residues, and the largest exponent that does hold, so a
run documents precisely how far each family is true.  P3-baseline checks
of this catalog show that several residue-class families hold only in a
sub-range of their nominal parameters; the suite records this rather than
hiding it.

Index conventions for case parameters:

* ``alpha``/``beta``  tower and progression depth, both from 0
* ``ell``             modulus parameter of the counting function; for
                      residue-class cases any member of +-base mod 3*base
* ``p``/``k``         auxiliary prime and its odd-power index

A negative alpha, beta, k or m (k and m also index the open statements)
is a ValueError, and so is k = 0 in the open statements (``conjecture``),
whose towers start at k = 1.  Every congruence record has
one shape (``CongruenceCase``), written as text in linear forms over a
(alpha), b (beta), k and m such as "2a+2b+1" (``Form``).
Each identity names the congruence it implies (``GfIdentity.implies``),
which holds its progression and lemma exponent: a cataloged family for
nine of them (T11 implies MR1, for one), a record of its own that
``catalog()`` does not list for H1, H2, D6, T23 and T311.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

from .arith3 import is_prime, pi3
from .counts import CountingFunction, Kind, values_at
from .eta import apply_factors
from .modseries import STANDARD_EXPONENT
from .report import FAIL, PASS, SKIPPED, Report, dumps
from .series import mul_sparse
from .vectors import Family, family_vector

_RESIDUE_CAP = STANDARD_EXPONENT  # valuations read off residues are exact below this
# below these, a congruence index and an identity's deepest index are read exactly
_EXACT_THRESHOLD = 50_000
_IDENTITY_EXACT_CAP = 80_000


# -- progressions and instances -----------------------------------------


@dataclass(frozen=True)
class Progression:
    """Indices A*n + B.  B may exceed A (shifted towers do), never negative."""

    A: int
    B: int

    def __post_init__(self):
        if self.A < 1 or self.B < 0:
            raise ValueError(f"degenerate progression {self.A}*n + {self.B}")

    def index(self, n: int) -> int:
        return self.A * n + self.B


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise ValueError(f"progression shift {num}/{den} is not an integer; formula transcription bug")
    return num // den


@dataclass(frozen=True)
class CaseInstance:
    """A record at concrete parameters: its function, progression and exponent."""

    record: CongruenceCase
    fn: CountingFunction
    progression: Progression
    exponent: int
    params: dict


# -- the congruence catalog ----------------------------------------------


def _pow3(e: int) -> int:
    if e < 0:
        raise ValueError(f"3^{e} is not an integer: a parameter is out of range")
    return 3**e


_PARAM_OF = {"a": "alpha", "b": "beta", "k": "k", "m": "m"}
_FORM_TEXT = re.compile(r"(?:\d*[abkm]|\d+)(?:[+-](?:\d*[abkm]|\d+))*")


@dataclass(frozen=True)
class Form:
    """A linear form in alpha, beta, k and m, written as the README writes
    one: "2a+2b+1" is 2 alpha + 2 beta + 1.  Text that is not wholly such a
    sum is a ValueError.  Called on a case's parameters, it is their value."""

    text: str

    def __post_init__(self):
        if not _FORM_TEXT.fullmatch(self.text):
            raise ValueError(f"{self.text!r} is not a linear form in a, b, k and m")
        terms = re.findall(r"([+-]?)(\d*)([abkm]?)", self.text)
        object.__setattr__(self, "_terms", [(_PARAM_OF.get(var), int(sign + (digits or "1")))
                                             for sign, digits, var in terms if digits or var])

    def __call__(self, params: dict) -> int:
        return sum(c if name is None else c * params[name] for name, c in self._terms)


@dataclass(frozen=True)
class Term:
    """c * 3^x * p^y, for linear forms x and y; without y there is no p."""

    c: int
    x: Form
    y: Form | None = None

    def __call__(self, params: dict) -> int:
        p_power = 1 if self.y is None else params["p"] ** self.y(params)
        return self.c * _pow3(self.x(params)) * p_power


@dataclass(frozen=True)
class ResidueClass:
    """The `ell` of a residue-class case: any ell = +-base mod 3*base,
    with base = 3^(2 alpha + shift); called on a case's parameters, it
    returns their ell once it has checked membership."""

    shift: int

    def base(self, alpha: int) -> int:
        return _pow3(2 * alpha + self.shift)

    def __call__(self, params: dict) -> int:
        ell, base = params["ell"], self.base(params["alpha"])
        if ell % (3 * base) not in (base, 2 * base):
            raise ValueError(f"{ell} is not congruent to +-{base} mod {3 * base}")
        return ell


_ODD_CLASS, _EVEN_CLASS = ResidueClass(1), ResidueClass(2)


def class_members(base: int, per_sign: int) -> list[int]:
    """Smallest residue-class members, per_sign of each sign, sorted."""
    mod = 3 * base
    pos = [base + i * mod for i in range(per_sign)]
    neg = [(i + 1) * mod - base for i in range(per_sign)]
    return sorted(pos + neg)  # disjoint: a shared member would need 2 base = 0 mod 3 base


# sigma of 8B = c 3^x p^y + sigma*ell0 + 1 is the q-shift of each eta quotient:
# eta(ell tau)^3/eta(tau)^3 = q^((ell-1)/8) E(q^ell)^3/E(q)^3 for T_ell, and
# q^(-(ell+1)/8) and q^(-1/8) for p_{ell,3} and p3, put coefficient n at
# q^((8n - sigma*ell - 1)/8).  A class doubles sigma and flips its sign:
# -2 ell0 is ell0 mod 3 ell0.
_SHIFT_SIGN = {Kind.REGULAR_TRIPLE: -1, Kind.TWO_COLOR_TRIPLE: 1, Kind.P3: 0}

# prime class -> (m, r, what p must be): p prime and p % m == r.  -3 is a
# nonresidue mod an odd prime p exactly when p = 2 mod 3, so when p = 5 mod 6.
_PRIME_CLASSES = {
    "3mod4": (4, 3, "a prime congruent to 3 mod 4"),
    "nonresidue-3": (6, 5, "an odd prime with -3 a nonresidue mod p"),
    "odd": (2, 1, "an odd prime"),
}


@dataclass(frozen=True)
class CongruenceCase:
    """One congruence family: the coefficients of the `kind` function at
    the indices A*n + B are divisible by 3^exponent.

    Every record has this shape, read from its text by `_case`, x and y
    being linear forms: ell is 3^x, a `ResidueClass`, or None for p3;
    A = 3^x p^y; 8B = c 3^x p^y + sigma*ell0 + 1 (`B_num`), with ell0 the
    3^x of ell or its class base and sigma from `_SHIFT_SIGN`; the
    exponent is a linear form.  A tower whose A carries p^(2k+1) checks
    only the indices with p not dividing n.
    """

    id: str
    kind: Kind
    ell: Term | ResidueClass | None
    A: Term
    B: Term                         # c 3^x p^y, 8B less its shift sigma*ell0 + 1
    exponent: Form
    param_names: tuple[str, ...]    # in the order alpha, beta, ell, p, k, m
    prime_class: str | None = None  # a key of _PRIME_CLASSES
    branch: bool = False            # triangular/non-triangular split
    conjecture: bool = False        # an open statement; its towers start at k = 1

    def B_num(self, params: dict) -> int:
        """8B.  A class's shift reads its base, not ell."""
        sigma = _SHIFT_SIGN[self.kind]
        if isinstance(self.ell, ResidueClass):
            return self.B(params) - 2 * sigma * self.ell.base(params["alpha"]) + 1
        return self.B(params) + (0 if self.ell is None else sigma * self.ell(params)) + 1

    def instantiate(self, params: dict) -> CaseInstance:
        """The record at `params`: exactly its `param_names`, integers in range, or a ValueError."""
        missing = [k for k in self.param_names if k not in params]
        if missing:
            raise ValueError(f"{self.id} needs parameters {missing}")
        unknown = sorted(set(params) - set(self.param_names))
        if unknown:
            raise ValueError(f"{self.id} takes no parameters {unknown}; it takes {list(self.param_names)}")
        bad = [k for k in self.param_names if not _is_int(params[k])]
        if bad:
            raise ValueError(f"{self.id}: {bad[0]}={params[bad[0]]!r} must be an integer")
        params = {k: params[k] for k in self.param_names}
        for name in ("alpha", "beta", "k", "m"):
            least = 1 if name == "k" and self.conjecture else 0
            if params.get(name, least) < least:
                raise ValueError(f"{self.id}: {name}={params[name]} must be at least {least}")
        if self.prime_class is not None:
            p, (mod, rem, text) = params["p"], _PRIME_CLASSES[self.prime_class]
            if not is_prime(p) or p % mod != rem:
                raise ValueError(f"{self.id}: p={p} must be {text}")
        fn = CountingFunction(self.kind, None if self.ell is None else self.ell(params))
        prog = Progression(self.A(params), _exact_div(self.B_num(params), 8))
        return CaseInstance(self, fn, prog, self.exponent(params), params)


def _case(id: str, kind: Kind, ell, A, B: tuple, exponent: str, **flags) -> CongruenceCase:
    """A record from its text: ell a form x, for 3^x, or as it is; A "x" or
    ("x", "y"), for 3^x p^y; B (c, "x") or (c, "x", "y"), for c 3^x p^y.
    Its parameters are those the forms name, ell for a class and p for a y."""
    def term(c: int, x: str, y: str | None = None) -> Term:
        return Term(c, Form(x), None if y is None else Form(y))

    A = (A,) if isinstance(A, str) else A
    texts = [*A, *B[1:], exponent] + ([ell] if isinstance(ell, str) else [])
    used = {_PARAM_OF[v] for v in re.findall("[abkm]", " ".join(texts))}
    used |= {"alpha", "ell"} if isinstance(ell, ResidueClass) else set()
    used |= {"p"} if len(A) == 2 or len(B) == 3 else set()
    names = tuple(n for n in ("alpha", "beta", "ell", "p", "k", "m") if n in used)
    return CongruenceCase(id, kind, term(1, ell) if isinstance(ell, str) else ell,
                          term(1, *A), term(*B), Form(exponent), names, **flags)


_T, _TWO = Kind.REGULAR_TRIPLE, Kind.TWO_COLOR_TRIPLE  # T_ell and p_{ell,3}

# id, kind, ell, A, B, exponent: see `_case`
_CASES: list[CongruenceCase] = [
    # single odd power, plain grid
    _case("MR1", _T, "2a+1", "2a+2b+1", (2, "2a+2b+2"), "3a+2b+2"),
    _case("MR2", _T, "2a+1", "2a+2b+2", (14, "2a+2b+1"), "3a+2b+4"),
    _case("MR3", _T, "2a+1", "2a+2b+2", (22, "2a+2b+1"), "3a+2b+5"),
    _case("MR4", _T, "2a+1", ("2a+2b+2", "2k+1"), (2, "2a+2b+2", "2k+2"), "3a+2b+4",
          prime_class="3mod4"),
    # single even power
    _case("MR5", _T, "2a+2", "2a+b+1", (8, "2a+b+1"), "3a+2b+2"),
    _case("MR6", _T, "2a+2", "2a+b+2", (16, "2a+b+1"), "3a+2b+3"),
    # odd residue class
    _case("MR7", _T, _ODD_CLASS, "2a+2b+1", (1, "2a+2b+2"), "3a+b+2"),
    _case("MR8", _T, _ODD_CLASS, "2a+2b+2", (11, "2a+2b+1"), "3a+b+4"),
    _case("MR9", _T, _ODD_CLASS, "2a+2b+2", (19, "2a+2b+1"), "3a+b+5"),
    _case("MR10", _T, _ODD_CLASS, "2a+2b+2", (1, "2a+2b+2"), "3a+b+4", branch=True),
    _case("MR11", _T, _ODD_CLASS, ("2a+2b+2", "2k+1"), (1, "2a+2b+2", "2k+2"), "3a+b+4",
          prime_class="odd"),
    # even residue class
    _case("MR12", _T, _EVEN_CLASS, "2a+2b+2", (5, "2a+2b+2"), "3a+3b+4"),
    _case("MR13", _T, _EVEN_CLASS, "2a+2b+3", (13, "2a+2b+2"), "3a+3b+5"),
    _case("MR14", _T, _EVEN_CLASS, "2a+2b+3", (7, "2a+2b+3"), "3a+3b+6"),
    # two-product, single odd power
    _case("MR15", _TWO, "2a+1", "2a+b+1", (4, "2a+b+1"), "3a+b+2"),
    _case("MR16", _TWO, "2a+1", ("2a+b+1", "2k+1"), (4, "2a+b+1", "2k+2"), "3a+b+4",
          prime_class="nonresidue-3"),
    # two-product, single even power
    _case("MR17", _TWO, "2a+2", "2a+2b+1", (2, "2a+2b+1"), "3a+2b+2"),
    _case("MR171", _TWO, "2a+2", "2a+2b+2", (10, "2a+2b+1"), "3a+2b+3"),
    _case("MR18", _TWO, "2a+2", "2a+2b+3", (14, "2a+2b+2"), "3a+2b+6"),
    _case("MR19", _TWO, "2a+2", "2a+2b+3", (22, "2a+2b+2"), "3a+2b+7"),
    _case("MR20", _TWO, "2a+2", ("2a+2b+1", "2k+1"), (2, "2a+2b+1", "2k+2"), "3a+2b+4",
          prime_class="3mod4"),
    # two-product, odd residue class
    _case("MR21", _TWO, _ODD_CLASS, "2a+2b+1", (7, "2a+2b+1"), "3a+3b+2"),
    _case("MR22", _TWO, _ODD_CLASS, "2a+2b+2", (23, "2a+2b+1"), "3a+3b+4"),
    _case("MR23", _TWO, _ODD_CLASS, "2a+2b+2", (5, "2a+2b+2"), "3a+3b+3"),
    _case("MR24", _TWO, _ODD_CLASS, "2a+2b+3", (13, "2a+2b+2"), "3a+3b+4"),
    # previously published families, regression targets
    _case("G1", _T, "1", "2b+1", (2, "2b+2"), "2b+2"),
    _case("B1", _T, "2", "b+1", (8, "b+1"), "2b+2"),
    _case("B2", _T, "2", "b+2", (16, "b+1"), "2b+3"),
    _case("B3", _T, "3", "2b+3", (2, "2b+4"), "2b+5"),
    _case("B4", _T, "3", "2b+4", (2, "2b+3", "1"), "2b+7", prime_class="3mod4"),
    _case("T1", _TWO, "1", "b+1", (4, "b+1"), "b+2"),
    _case("T2", _TWO, "2", "2b+1", (2, "2b+1"), "2b+2"),
    _case("T3", _TWO, "2", "2b+2", (2, "2b+3"), "2b+4"),
    # open statements, probed but never gating
    _case("BC1", _T, "2k", "m+2k-1", (8, "m+2k-1"), "3k+2m-1", conjecture=True),
    _case("BC2", _T, "2k-1", "2m+2k-1", (2, "2m+2k"), "3k+2m-1", conjecture=True),
]

_CASE_BY_ID = {c.id: c for c in _CASES}


# -- the identity catalog --------------------------------------------------


@dataclass(frozen=True)
class GfIdentity:
    """Progression generating function = m-weighted sum of quotients.

    The left-hand side is the progression of `implies`, the congruence
    the identity forces: its function, progression and parameters are the
    identity's, and its exponent is the lemma exponent, the power of 3
    that divides every weight of the family vector.

    The j-th right-hand term is  coeff_j * q^{j-1} * E(q^3)^{12j+num} / E(q)^{12j+den};
    its q-valuation is j-1, so a window of `terms` coefficients needs
    j <= terms only.
    """

    id: str
    implies: CongruenceCase
    family: Family
    level: Form
    num: int
    den: int


# what the identities without a cataloged congruence imply; checked only as identities
_UNLISTED = {c.id: c for c in [
    _case("H1", Kind.P3, None, "2a+1", (5, "2a+1"), "3a+2"),
    _case("H2", Kind.P3, None, "2a+2", (7, "2a+2"), "3a+4"),
    _case("D6", _T, "2a+1", "2a+2b+2", (2, "2a+2b+2"), "3a+2b+2"),
    _case("T23", _TWO, "2a+2", "2a+2b+2", (2, "2a+2b+3"), "3a+2b+4"),
    _case("T311", _T, _ODD_CLASS, "2a+2b+2", (1, "2a+2b+2"), "3a+b+2"),
]}

_IDENTITIES: list[GfIdentity] = [
    GfIdentity("H1", _UNLISTED["H1"], Family.X, Form("2a+1"), -3, 0),
    GfIdentity("H2", _UNLISTED["H2"], Family.X, Form("2a+2"), 0, 3),
    GfIdentity("T11", _CASE_BY_ID["MR1"], Family.R, Form("2b+1"), -3, -3),
    GfIdentity("D6", _UNLISTED["D6"], Family.R, Form("2b+2"), -9, -9),
    GfIdentity("T12", _CASE_BY_ID["MR5"], Family.S, Form("b+1"), 0, 0),
    GfIdentity("T21", _CASE_BY_ID["MR15"], Family.U, Form("b+1"), -3, 3),
    GfIdentity("T22", _CASE_BY_ID["MR17"], Family.V, Form("2b+1"), -6, 0),
    GfIdentity("T23", _UNLISTED["T23"], Family.V, Form("2b+2"), 0, 6),
    GfIdentity("T24", _CASE_BY_ID["MR21"], Family.W, Form("2b+1"), 0, 3),
    GfIdentity("T25", _CASE_BY_ID["MR23"], Family.W, Form("2b+2"), -3, 0),
    GfIdentity("T31", _CASE_BY_ID["MR7"], Family.Y, Form("2b+1"), -6, -3),
    GfIdentity("T311", _UNLISTED["T311"], Family.Y, Form("2b+2"), -9, -6),
    GfIdentity("T32", _CASE_BY_ID["MR12"], Family.Z, Form("2b+1"), -3, 0),
    GfIdentity("T321", _CASE_BY_ID["MR14"], Family.Z, Form("2b+2"), 0, 3),
]

_IDENTITY_BY_ID = {i.id: i for i in _IDENTITIES}


def catalog() -> dict:
    """The complete immutable catalog: congruence cases and identities."""
    return {"congruences": list(_CASES), "identities": list(_IDENTITIES)}


def instantiate(case_id: str, params: dict) -> CaseInstance:
    """Resolve a congruence case id and parameter bag to a checkable instance."""
    case = _CASE_BY_ID.get(case_id)
    if case is None:
        raise KeyError(f"unknown case {case_id!r}")
    return case.instantiate(params)


def _identity_instance(identity_id: str, params: dict) -> tuple[GfIdentity, CaseInstance]:
    """The identity and its left-hand side: the congruence it implies,
    instantiated under the identity's own id."""
    identity = _IDENTITY_BY_ID.get(identity_id)
    if identity is None:
        raise KeyError(f"unknown identity {identity_id!r}")
    return identity, replace(identity.implies, id=identity.id).instantiate(params)


# -- engines ---------------------------------------------------------------

_REDUCED_ENGINE = f"reduced(3^{STANDARD_EXPONENT})"
IDENTITY_MODES = ("exact", "mod", "auto")


def _scan(deviations: list[int], capped: bool) -> tuple[list[int | None], int | None, bool]:
    """(valuations, holds, hit_cap) of the deviations from a claim.

    Each valuation is pi3 of one deviation, None for a zero; `holds` is
    the least of them, the largest exponent the claim holds to.  Capped
    deviations are known only mod 3^_RESIDUE_CAP, where a zero means "at
    least the cap": if only zeros were seen, `holds` is the cap and
    `hit_cap` is set.
    """
    if capped:
        deviations = [d % 3**_RESIDUE_CAP for d in deviations]
    valuations = [pi3(d) for d in deviations]
    finite = [v for v in valuations if v is not None]
    hit_cap = capped and bool(deviations) and not finite
    return valuations, min(finite, default=_RESIDUE_CAP if hit_cap else None), hit_cap


def _settle(rep: Report, hit_cap: bool, required: int) -> Report:
    """Mark the report undecided where residues cannot show it PASSes.

    Read off residues mod 3^_RESIDUE_CAP, a nonzero deviation has a
    valuation below the cap, so when `required` exceeds the cap it fails on
    evidence.  If none failed and the deviations read zero (`hit_cap`),
    they show divisibility by 3^_RESIDUE_CAP only: the reason goes in
    extras["undecided"], which makes the report SKIPPED.
    """
    if hit_cap and required > _RESIDUE_CAP:
        rep.extras["undecided"] = (f"residues mod 3^{_RESIDUE_CAP} cannot show divisibility "
                                   f"by 3^{required}")
    return rep


def _extras(fn: CountingFunction, prog: Progression, **more) -> dict:
    """The function and progression every report names, then `more`."""
    return {"function": fn.label(), "progression": {"A": prog.A, "B": prog.B}, **more}


def verify_congruence(case_id: str, params: dict, n_max: int,
                      exact_threshold: int = _EXACT_THRESHOLD) -> Report:
    """Check one congruence family instance for all admissible n <= n_max.

    The stated modulus is a hypothesis: failures are collected, and the
    report always carries the largest exponent that holds across the
    checked range (`holds_to_exponent`, possibly capped by the reduced
    precision when the fast path was used).  A reduced reading that
    cannot decide the stated exponent is SKIPPED (see `_settle`).
    """
    return _check_instance(instantiate(case_id, params), n_max, exact_threshold)


def _check_instance(inst: CaseInstance, n_max: int, exact_threshold: int) -> Report:
    """The congruence check of `verify_congruence`, on a resolved instance."""
    record = inst.record
    # a branch case fits its constant at n = 0, and a prime filter (p not
    # dividing n, where A carries p) drops n = 0, so there n = 0 alone checks nothing
    filter_p = record.A.y is not None
    least = 1 if record.branch or filter_p else 0
    if n_max < least:
        raise ValueError(f"{record.id}: n_max={n_max} must be at least {least}")
    exact = inst.progression.index(n_max) < exact_threshold
    ns = [n for n in range(n_max + 1) if not filter_p or n % inst.params["p"]]
    values = values_at(inst.fn, map(inst.progression.index, ns), exact)
    rep = Report(case=record.id, params=dict(inst.params) | {"n_max": n_max}, checked=len(ns))
    if record.branch:
        return _verify_branch_case(inst, rep, values, exact)
    valuations, holds, hit_cap = _scan(values, not exact)
    rep.failures = [{"n": n, "value": str(v), "valuation": val, "required": inst.exponent}
                    for n, v, val in zip(ns, values, valuations)
                    if val is not None and val < inst.exponent]
    rep.extras = _extras(inst.fn, inst.progression, modulus_exponent=inst.exponent,
                         engine="exact" if exact else _REDUCED_ENGINE,
                         holds_to_exponent=holds, exponent_capped=hit_cap)
    if record.conjecture:
        rep.extras["conjecture"] = True
    return _settle(rep, hit_cap, inst.exponent)


def _is_triangular(n: int) -> bool:
    """Whether n = k(k+1)/2 for some k >= 0, that is, 8n+1 is a perfect square."""
    return math.isqrt(8 * n + 1) ** 2 == 8 * n + 1


def _verify_branch_case(inst: CaseInstance, rep: Report, values: list[int], exact: bool) -> Report:
    """Two-branch check of values at n = 0, 1, ...: on triangular n the
    coefficient must follow c * (-1)^n (2n+1) for one constant c fitted
    at n = 0, elsewhere vanish.

    Everything is read modulo 3^exponent.  The fitted constant and
    whether the bare (-1)^n (2n+1) branch (c = 1) also holds are
    reported, as is the largest exponent at which the branch structure
    survives.
    """
    mod = 3**inst.exponent
    const = values[0]
    wants = [const * (2 * n + 1) * (-1 if n % 2 else 1) if _is_triangular(n) else 0
             for n in range(len(values))]
    valuations, holds, hit_cap = _scan([v - w for v, w in zip(values, wants)], not exact)
    rep.failures = [{"n": n, "value": str(v % mod), "expected": str(w % mod),
                     "valuation": val, "required": inst.exponent}
                    for n, (v, w, val) in enumerate(zip(values, wants, valuations))
                    if val is not None and val < inst.exponent]
    rep.extras = _extras(inst.fn, inst.progression, modulus_exponent=inst.exponent,
                         engine="exact" if exact else _REDUCED_ENGINE,
                         fitted_constant=str(const % mod), plain_branch_holds=const % mod == 1,
                         branch_holds_to_exponent=holds, exponent_capped=hit_cap)
    return _settle(rep, hit_cap, inst.exponent)


_F = ((3, 12), (1, -12))  # F = E(q^3)^12 / E(q)^12, the ratio of consecutive quotients over q
# window length -> [F^0, F^1, ...]; F^j holds its terms - j + 1 leading coefficients
_ratio_powers: dict[int, list[list[int]]] = {}


def _powers_of_ratio(terms: int, top: int) -> list[list[int]]:
    """F^0 .. F^top, F^j to its first terms - j + 1 coefficients.

    The j-th term of a window, q^{j-1} F^j times the identity's quotient,
    reads no more of F^j than that.  One chain per window length grows on
    demand, each power past F^1 one `mul_sparse` truncated there; powers
    already built are reused.
    """
    chain = _ratio_powers.setdefault(terms, [[1] + [0] * terms])
    while len(chain) <= top:
        j = len(chain)
        chain.append(apply_factors(chain[0][:terms], _F, terms) if j == 1 else
                     mul_sparse(chain[1], list(enumerate(chain[-1])), terms - j + 1))
    return chain[:top + 1]


def _weighted_quotient_window(vec, num: int, den: int, terms: int) -> list[int]:
    """Coefficients 0..terms-1 of sum_j vec(j) * q^{j-1} E(q^3)^{12j+num} / E(q)^{12j+den}.

    With F = E(q^3)^12 / E(q)^12 the sum is E(q^3)^num / E(q)^den times
    S = sum_j vec(j) q^{j-1} F^j.  S sums the shared powers of F, which
    end at the last nonzero weight inside the window; the quotient is then
    |num| / 3 + |den| / 3 cube passes over S (0 to 6 in the catalog).
    """
    weights = list(vec.values[:terms])
    while weights and not weights[-1]:
        weights.pop()
    total = [0] * terms
    for j, (c, power) in enumerate(zip(weights, _powers_of_ratio(terms, len(weights))[1:]), start=1):
        if c:
            for e, a in enumerate(power, start=j - 1):
                total[e] += c * a
    return apply_factors(total, ((3, num), (1, -den)), terms)


@functools.lru_cache(maxsize=None)
def _rhs_window(identity: GfIdentity, level: int, alpha: int, terms: int) -> tuple[int, ...]:
    """Exact window of the identity's right-hand side.

    It does not depend on ell, so the members of a residue class share
    one cached tuple, which no caller can mutate.
    """
    vec = family_vector(identity.family, alpha, level, terms)
    return tuple(_weighted_quotient_window(vec, identity.num, identity.den, terms))


def verify_gf_identity(identity_id: str, params: dict, terms: int = 30,
                       mode: str = "auto", exact_order_cap: int = _IDENTITY_EXACT_CAP) -> Report:
    """Compare a progression generating function with its vector expansion.

    Modes: "exact" demands coefficientwise equality; "mod" compares
    modulo 3^lemma_exponent; "auto" runs "mod" and, when the underlying
    expansion order stays under `exact_order_cap`, also decides exact
    equality (`exact_checked`).  A nonzero residue of the difference
    mod 3^_RESIDUE_CAP already shows inequality, and with it every field
    an exact read gives, so "auto" reads the exact engine only when every
    residue agrees or lemma_exponent exceeds _RESIDUE_CAP.
    Any other mode is a ValueError.  The observed minimum valuation of
    the difference is reported either way, so the answer to "equality or
    congruence, and to what power?" is part of every report.  A reduced
    reading that cannot decide the lemma exponent is SKIPPED (see `_settle`).
    """
    identity, inst = _identity_instance(identity_id, params)
    fn, prog, lemma_e, params = inst.fn, inst.progression, inst.exponent, inst.params
    if terms < 1:
        raise ValueError(f"{identity_id}: terms={terms} must be at least 1")
    if mode not in IDENTITY_MODES:
        raise ValueError(f"unknown identity mode {mode!r}; expected one of {IDENTITY_MODES}")
    exact = mode == "exact" or (mode == "auto" and prog.index(terms - 1) < exact_order_cap)
    rep = Report(case=identity_id, params=dict(params) | {"terms": terms, "mode": mode},
                 checked=terms)
    rhs = _rhs_window(identity, identity.level(params), params["alpha"], terms)
    indices = [prog.index(n) for n in range(terms)]

    def read(exact_read: bool):
        lhs = values_at(fn, indices, exact_read)
        return (lhs, *_scan([a - b for a, b in zip(lhs, rhs)], not exact_read))

    # "auto" reads residues first.  A nonzero one has a valuation below the
    # cap, so the least valuation, `bad` and each failure read the same as
    # exactly, unless lemma_e exceeds the cap: an exact valuation in
    # [cap, lemma_e) reads zero but fails, so that read is exact at once.
    lhs, valuations, diff_min, hit_cap = read(exact and (mode == "exact" or lemma_e > _RESIDUE_CAP))
    if exact and hit_cap:  # every residue agrees: only the exact read tells equality
        lhs, valuations, diff_min, hit_cap = read(True)
    # residues that stopped the read differ from rhs mod 3^_RESIDUE_CAP, so
    # they differ from rhs as integers too and exact_equal reads False
    exact_equal = tuple(lhs) == rhs if exact else None
    mod_ok = None
    if mode != "exact":
        bad = [n for n, val in enumerate(valuations) if val is not None and val < lemma_e]
        mod_ok = not bad
        if bad:
            n = bad[0]
            rep.failures.append({"n": n, "value": str(lhs[n] % 3**lemma_e),
                                 "expected": str(rhs[n] % 3**lemma_e),
                                 "valuation": diff_min, "required": lemma_e})
    elif not exact_equal:
        n = next(n for n, val in enumerate(valuations) if val is not None)
        rep.failures.append({"n": n, "value": str(lhs[n]), "expected": str(rhs[n]),
                             "valuation": diff_min, "required": "exact"})
    rep.extras = _extras(fn, prog, lemma_exponent=lemma_e, exact_checked=exact,
                         exact_equal=exact_equal, mod_equal=mod_ok,
                         diff_valuation=diff_min, diff_valuation_capped=hit_cap)
    return _settle(rep, hit_cap, lemma_e)


# -- suite ------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# fields with a least value, for a grid its every entry: the grids of alpha,
# beta, k and m and the index depths from 0, the counts and the prime
# towers' depth (whose filter drops n = 0) from 1
_LEAST = {"alphas": 0, "betas": 0, "prime_alphas": 0, "prime_betas": 0, "prime_ks": 0,
          "priors_betas": 0, "conjecture_ks": 0, "conjecture_ms": 0,
          "n_max": 0, "n_max_small": 0, "prime_n_max": 1, "priors_n_max": 0,
          "conjecture_n_max": 0, "class_reps_per_sign": 1, "identity_terms": 1}


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter grids for a full catalog run; the defaults are the grids
    `verify suite` runs without --config.

    Construction checks every field, a ValueError naming a malformed one.
    Grids are lists or tuples (stored as tuples) of integers, those of
    alpha, beta, k and m values from 0; `include` is None or catalog ids;
    every other field is an integer, the index depths from 0 and
    `prime_n_max`, `class_reps_per_sign` and `identity_terms` from 1.  A
    config is frozen: change one with `dataclasses.replace`, which checks
    the result again.
    """

    alphas: tuple[int, ...] = (0, 1)
    betas: tuple[int, ...] = (0, 1)
    n_max: int = 100
    n_max_small: int = 300
    small_A_cutoff: int = 27
    primes_3mod4: tuple[int, ...] = (7, 11)
    primes_nonresidue: tuple[int, ...] = (5, 11)
    prime_ks: tuple[int, ...] = (0,)
    prime_n_max: int = 50
    prime_alphas: tuple[int, ...] = (0,)
    prime_betas: tuple[int, ...] = (0,)
    class_reps_per_sign: int = 4
    identity_terms: int = 30
    identity_exact_cap: int = _IDENTITY_EXACT_CAP
    exact_threshold: int = _EXACT_THRESHOLD
    priors_betas: tuple[int, ...] = (0, 1, 2)
    priors_n_max: int = 200
    conjecture_ks: tuple[int, ...] = (1,)
    conjecture_ms: tuple[int, ...] = (0, 1)
    conjecture_n_max: int = 50
    include: tuple[str, ...] | None = None

    def __post_init__(self):
        for f in fields(self):
            v, least = getattr(self, f.name), _LEAST.get(f.name)
            if isinstance(f.default, tuple):
                want, ok = "a list of integers", isinstance(v, (list, tuple)) and all(map(_is_int, v))
                if ok and least is not None:
                    want, ok = f"a list of integers from {least}", min(v, default=least) >= least
            elif f.default is None:
                want, ok = "null or a list of strings", v is None or (
                    isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v))
            else:
                want, ok = "an integer", _is_int(v)
                if ok and least is not None:
                    want, ok = f"an integer from {least}", v >= least
            if not ok:
                raise ValueError(f"suite config field {f.name!r} must be {want}, not {v!r}")
            if isinstance(v, list):
                object.__setattr__(self, f.name, tuple(v))
        unknown = sorted(set(self.include or ()) - _CASE_BY_ID.keys() - _IDENTITY_BY_ID.keys())
        if unknown:
            raise ValueError(f"suite config field 'include' names ids not in the catalog: {unknown}")

    @classmethod
    def from_json(cls, text: str) -> "SuiteConfig":
        """Parse a config; a malformed one is a ValueError naming the field.

        A "threads" integer, which older configs carry, is accepted and
        ignored: the suite runs serially.
        """
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("a suite config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)} - {"threads"}
        if unknown:
            raise ValueError(f"unknown suite config keys: {sorted(unknown)}")
        if not _is_int(raw.pop("threads", 1)):
            raise ValueError("suite config field 'threads' must be an integer")
        return cls(**raw)


@dataclass
class SuiteReport:
    reports: list[Report] = field(default_factory=list)

    @property
    def status(self) -> str:
        """FAIL on any error report (a job its case refused) and on any failed
        gating report, one that is not an open statement's; else PASS if a
        gating report ran, else SKIPPED."""
        gating = [r for r in self.reports if not r.extras.get("conjecture")]
        failed = any("error" in r.extras for r in self.reports) or any(r.status == FAIL for r in gating)
        ran = any(r.status != SKIPPED for r in gating)
        return FAIL if failed else PASS if ran else SKIPPED

    def json_pieces(self) -> Iterator[str]:
        """The suite JSON and a newline, one report's text at a time.

        Joined, the pieces are `dumps` of {"counts", "reports", "status"}
        plus "\\n".  A writer that takes them as they come never holds the
        whole text, nor the dicts of more than one report.
        """
        counts = {s: sum(1 for r in self.reports if r.status == s) for s in (PASS, FAIL, SKIPPED)}
        yield '{"counts":' + dumps(counts) + ',"reports":['
        for i, rep in enumerate(self.reports):
            yield ("," if i else "") + dumps(rep.to_dict())
        yield '],"status":' + dumps(self.status) + "}\n"


def _grid(cfg: SuiteConfig, case: CongruenceCase) -> tuple[dict, int | None]:
    """The case's parameter grids by name, and its fixed n_max (None: by A)."""
    primes = cfg.primes_nonresidue if case.prime_class == "nonresidue-3" else cfg.primes_3mod4
    if case.conjecture:
        return {"k": cfg.conjecture_ks, "m": cfg.conjecture_ms}, cfg.conjecture_n_max
    if "alpha" not in case.param_names:
        return {"beta": cfg.priors_betas, "p": primes}, cfg.priors_n_max
    if case.prime_class is not None:
        return {"alpha": cfg.prime_alphas, "beta": cfg.prime_betas, "p": primes,
                "k": cfg.prime_ks}, cfg.prime_n_max
    return {"alpha": cfg.alphas, "beta": cfg.betas}, None


def _suite_jobs(cfg: SuiteConfig) -> list[tuple[str, str, dict, dict]]:
    """Deterministic job list: (kind, id, params, options), read off the catalog.

    A case's record decides its grid.  An open statement (`conjecture`)
    runs on conjecture_ks x conjecture_ms to conjecture_n_max.  A case
    without alpha, a published family, runs on priors_betas, with p from
    primes_3mod4, to priors_n_max.  A prime tower (`prime_class`) runs on
    prime_alphas x prime_betas x prime_ks, with p from primes_nonresidue
    for the "nonresidue-3" class and from primes_3mod4 otherwise, to
    prime_n_max.  Every other case runs on alphas x betas, to n_max_small
    when A <= small_A_cutoff and to n_max otherwise.  A residue-class ell
    adds the class_reps_per_sign least members of each sign of its class
    at each alpha.  An identity runs on the grid of the congruence it
    implies, in mode "auto" when it takes ell and "exact" otherwise.
    """
    jobs: list[tuple[str, str, dict, dict]] = []
    records = [("congruence", c, c) for c in _CASES] + [("identity", i, i.implies) for i in _IDENTITIES]
    for kind, record, case in records:
        if cfg.include is not None and record.id not in cfg.include:
            continue
        grids, n_max = _grid(cfg, case)
        points = [{}]
        for name in case.param_names:
            points = [P | {name: v} for P in points for v in (
                class_members(case.ell.base(P["alpha"]), cfg.class_reps_per_sign)
                if name == "ell" else grids[name])]
        for P in points:
            if kind == "identity":
                opts = {"mode": "auto" if "ell" in P else "exact"}
            elif n_max is None:
                opts = {"n_max": cfg.n_max_small if case.A(P) <= cfg.small_A_cutoff else cfg.n_max}
            else:
                opts = {"n_max": n_max}
            jobs.append((kind, record.id, P, opts))
    jobs.sort(key=lambda j: (j[0], j[1], json.dumps(j[2], sort_keys=True)))
    return jobs


def _error_report(job, exc: ValueError) -> Report:
    _, jid, params, _ = job
    return Report(case=jid, params=dict(params), extras={"error": str(exc)})


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Run the whole catalog over the configured grids.

    Jobs run serially in the order of `_suite_jobs`, sorted by (kind, id,
    parameters); each engine's base grows to the deepest index read so
    far, so no coefficient is solved twice.  Reports come back sorted by
    (case id, parameters).
    """
    cfg = cfg or SuiteConfig()
    reports: list[Report] = []
    for job in _suite_jobs(cfg):
        jkind, jid, params, opts = job
        try:
            if jkind == "congruence":
                reports.append(verify_congruence(jid, params, opts["n_max"], cfg.exact_threshold))
            else:
                reports.append(verify_gf_identity(jid, params, cfg.identity_terms, opts["mode"],
                                                  cfg.identity_exact_cap))
        except ValueError as exc:
            reports.append(_error_report(job, exc))
    reports.sort(key=lambda r: (r.case, json.dumps(r.params, sort_keys=True)))
    return SuiteReport(reports=reports)

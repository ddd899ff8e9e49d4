"""Identity sweeps: every formula the kernel implements, machine-checked.

The harness runs ordered groups of checks, each comparing two classes
computed along genuinely different routes, and collects one record per
(identity, parameter block).  Failures carry both normal forms.  All
randomness is seeded, so reports are reproducible.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import random
import re
import time
from dataclasses import dataclass, field, asdict

from . import point as pt
from . import projective as pj
from . import bundles as bd
from . import schubert as sb
from . import render
from .grading import PiBDegree
from .laurent import l_mul


@dataclass
class SweepConfig:
    p_max: int = 5
    q_max: int = 5
    pq_sum_max: int = 7           # grid bound for the bundle-sum sweeps
    max_bundles_per_family: int = 3
    max_bundles_total: int = 6
    odd_degrees: tuple = (1, 3, 5)
    even_degrees: tuple = (2, 4)
    include_negative_degrees: bool = False
    seed: int = 2024
    random_pairs: int = 200

    def __post_init__(self):
        self.odd_degrees = tuple(self.odd_degrees)
        self.even_degrees = tuple(self.even_degrees)
        # a bool is an int to Python, but not a bound, seed or degree
        for name in ("p_max", "q_max", "pq_sum_max", "max_bundles_per_family",
                     "max_bundles_total", "seed", "random_pairs"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("odd_degrees", "even_degrees"):
            value = getattr(self, name)
            if not all(type(d) is int for d in value):
                raise ValueError(f"{name} must list integers, got {value!r}")
        if type(self.include_negative_degrees) is not bool:
            raise ValueError("include_negative_degrees must be true or false, "
                             f"got {self.include_negative_degrees!r}")
        if min(self.p_max, self.q_max, self.pq_sum_max,
               self.max_bundles_per_family, self.max_bundles_total) <= 0:
            raise ValueError("all sweep bounds must be positive")
        if self.random_pairs < 0:
            raise ValueError(f"random_pairs must be >= 0, got {self.random_pairs}")
        for d in self.odd_degrees:
            if d % 2 == 0:
                raise ValueError(f"odd degree list contains even {d}")
        for d in self.even_degrees:
            if d % 2:
                raise ValueError(f"even degree list contains odd {d}")

    def degrees(self, family: str) -> tuple:
        base = self.odd_degrees if family in ("I", "III") else self.even_degrees
        if self.include_negative_degrees:
            return base + tuple(-d for d in base)
        return base

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SweepConfig":
        return cls(**data)


@dataclass
class IdentityRecord:
    name: str
    params: dict
    status: str  # pass | fail | skipped
    cases: int = 1
    detail: str = ""
    lhs: str | None = None
    rhs: str | None = None

    def to_json(self) -> dict:
        # asdict's field order, without its deep copy of params: a report
        # serialises every record at once, and params never change once
        # recorded (see Recorder)
        return {"name": self.name, "params": self.params, "status": self.status,
                "cases": self.cases, "detail": self.detail, "lhs": self.lhs,
                "rhs": self.rhs}

    @classmethod
    def from_json(cls, data: dict) -> "IdentityRecord":
        return cls(**data)


@dataclass
class VerifyReport:
    records: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def failures(self) -> list:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0, "cases": 0}
        for r in self.records:
            out[r.status] += 1
            out["cases"] += r.cases
        out["wall_time_s"] = round(self.wall_time_s, 3)
        return out

    def ordered_records(self) -> list:
        """Failures first, then skips, then passes, stable otherwise."""
        key = {"fail": 0, "skipped": 1, "pass": 2}
        return sorted(self.records, key=lambda r: key[r.status])

    def to_json(self) -> dict:
        return {"records": [r.to_json() for r in self.records],
                "summary": self.summary(),
                "wall_time_s": self.wall_time_s}

    @classmethod
    def from_json(cls, data: dict) -> "VerifyReport":
        return cls(records=[IdentityRecord.from_json(r) for r in data["records"]],
                   wall_time_s=data.get("wall_time_s", 0.0))


class Recorder:
    """Verdicts merged into one record per (identity, params).

    A record is indexed by its name and its params, sorted and repr'd.
    Loops pass the same params object to many verdicts, so the index key
    is built once per name and params object: each name remembers the
    params object of its last verdict and that key.  A params dict must
    not change once passed, as its record keeps it."""

    def __init__(self):
        self.records: list = []
        self._index: dict = {}   # key -> record
        self._last: dict = {}    # name -> (params object, key) of its last verdict

    def _key(self, name: str, params: dict) -> tuple:
        last = self._last.get(name)
        if last is None or last[0] is not params:
            last = self._last[name] = (
                params, (name, tuple(sorted([(k, repr(v)) for k, v in params.items()]))))
        return last[1]

    def _insert(self, key: tuple, rec: IdentityRecord) -> None:
        self.records.append(rec)
        self._index[key] = rec

    def ok(self, name: str, params: dict, cases: int = 1) -> None:
        key = self._key(name, params)
        r = self._index.get(key)
        if r is None:
            self._insert(key, IdentityRecord(name, params, "pass", cases))
        elif r.status == "pass":
            r.cases += cases

    def fail(self, name: str, params: dict, detail: str = "",
             lhs: str | None = None, rhs: str | None = None) -> None:
        key = self._key(name, params)
        r = self._index.get(key)
        if r is not None and r.status != "fail":
            self.records.remove(r)
            r = None
        if r is None:
            self._insert(key, IdentityRecord(name, params, "fail", 1,
                                             detail, lhs, rhs))

    def skip(self, name: str, params: dict, detail: str, cases: int = 1) -> None:
        key = self._key(name, params)
        r = self._index.get(key)
        if r is None:
            self._insert(key, IdentityRecord(name, params, "skipped",
                                             cases, detail))
        else:
            r.cases += cases

    def eq(self, name: str, params: dict, lhs: pj.ProjClass, rhs: pj.ProjClass,
           detail=None) -> bool:
        """Record lhs == rhs; detail() gives extra params for a failure."""
        if lhs == rhs:
            self.ok(name, params)
            return True
        self.fail(name, dict(params, **(detail() if detail else {})),
                  "normal forms differ",
                  render.proj_text(lhs), render.proj_text(rhs))
        return False

    def check(self, name: str, params: dict, condition: bool,
              detail: str = "") -> bool:
        if condition:
            self.ok(name, params)
        else:
            self.fail(name, params, detail)
        return condition


# ---------------------------------------------------------------------------
# point ring

def _fig1_expected(a: int, b: int) -> str:
    if (a, b) == (0, 0):
        return "A(C2)"
    if a == 0:
        return "Z"
    if a < 0 and a % 2 == 0:
        if b == -a:
            return "Z"
        if b > -a:
            return "Z/2"
        return "0"
    if a > 0 and a % 2 == 0 and b == -a:
        return "Z"
    return "0"


# the degree window of the point-ring checks, and the rank bound of the
# grading check
_POINT_WINDOW = 8
_GRADING_BOUND = 4


def check_point_table(rec: Recorder, cfg: SweepConfig) -> None:
    window = _POINT_WINDOW
    census = pt.point_census(window)
    name = "point_table_fig1"
    params = {"window": window}
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            want = _fig1_expected(a, b)
            syms = census.get((a, b), [])
            if pt.point_group(syms) != want:
                rec.fail(name, dict(params, a=a, b=b),
                         f"expected {want}, found symbols {syms}")
                return
    rec.ok(name, params, cases=(2 * window + 1) ** 2)
    # torsion sanity: 2 e xi = 0 but e xi != 0
    exi = pt.p_sym(("exi", 1, 1))
    rec.check("point_torsion", params,
              pt.p_scale(exi, 2) == () and exi != (),
              "2 e xi should vanish while e xi does not")


def check_point_axioms(rec: Recorder, cfg: SweepConfig) -> None:
    window = _POINT_WINDOW
    syms = pt.point_symbols_in_window(window)
    vals = [pt.p_sym(s) for s in syms]
    ok_comm = all(pt.p_mul(x, y) == pt.p_mul(y, x)
                  for x, y in itertools.combinations(vals, 2))
    rec.check("point_mul_commutative", {"window": window}, ok_comm)
    small = [pt.p_sym(s) for s in pt.point_symbols_in_window(4)]
    ok_assoc = all(pt.p_mul(pt.p_mul(x, y), z) == pt.p_mul(x, pt.p_mul(y, z))
                   for x, y, z in itertools.product(small, repeat=3))
    rec.check("point_mul_associative", {"window": 4}, ok_assoc)
    ok_rho = all(_point_shadow(pt.p_mul(x, y)) ==
                 l_mul(_point_shadow(x), _point_shadow(y))
                 for x, y in itertools.combinations_with_replacement(vals, 2))
    rec.check("point_rho_ring_hom", {"window": window}, ok_rho)
    ok_fix = all(pt.p_fixed(pt.p_mul(x, y)) == pt.p_fixed(x) * pt.p_fixed(y)
                 for x, y in itertools.combinations_with_replacement(vals, 2))
    rec.check("point_fixed_ring_hom", {"window": window}, ok_fix)
    ok_frob = all(
        all(pt.p_mul(x, pt.p_tau({2 * k: 1}))
            == pt.p_tau({2 * k + ie: c for ie, c in pt.p_rho(x).items()})
            for k in range(-4, 5))
        and pt.p_tau(pt.p_rho(x)) == pt.p_mul(pt.p_sym(pt.S_G), x)
        for x in vals)
    rec.check("point_frobenius", {"window": window, "k_max": 4}, ok_frob)
    kap = pt.p_kappa()
    rec.check("point_kappa", {},
              pt.p_mul(kap, kap) == pt.p_scale(kap, 2)
              and pt.p_mul(pt.p_sym(pt.S_G), pt.p_sym(pt.S_G))
              == pt.p_sym(pt.S_G, 2)
              and pt.p_mul(pt.p_sym(("eik", 1)), pt.p_sym(("eik", 1)))
              == pt.p_sym(("eik", 2), 2))


def _point_shadow(x: pt.Coeff) -> dict:
    """The restriction of a point element, on laurent (iota, 0, 0) keys."""
    return {(e, 0, 0): c for e, c in pt.p_rho(x).items()}


def _fixed_shadows(cls: pj.ProjClass) -> tuple:
    """The two fixed-point images of a class, on laurent (0, 0, c) keys."""
    return tuple({(0, 0, k): v for k, v in side.items()} for side in cls.fixed())


def _first_failure(cases, failure):
    """(case, failure(case)) for the first case whose failure is not None,
    or None.  Cases are drawn lazily: nothing after it is computed."""
    for case in cases:
        found = failure(case)
        if found is not None:
            return case, found
    return None


def check_grading(rec: Recorder, cfg: SweepConfig) -> None:
    bound = _GRADING_BOUND
    degs = []
    for t in range(-bound, bound + 1):
        for f0 in range(-bound, bound + 1):
            for f1 in range(-bound, bound + 1):
                if (f0 - f1) % 2 == 0:
                    degs.append(PiBDegree(t, f0, f1))
    zero = PiBDegree(0, 0, 0)
    ok = all(a + zero == a and a + (-a) == zero for a in degs)
    ok = ok and all(a + b == b + a
                    for a, b in itertools.combinations(degs[::7], 2))
    small = degs[:: max(1, len(degs) // 12)]
    ok = ok and all((a + b) + c == a + (b + c)
                    for a, b, c in itertools.product(small, repeat=3))
    rec.check("grading_axioms", {"bound": bound}, ok)
    ok_rt = all(d.to_roc2().to_pib() == d for d in degs if d.is_roc2())
    rec.check("grading_roc2_roundtrip", {"bound": bound}, ok_rt)


# ---------------------------------------------------------------------------
# projective ring

def _ambients(p_max: int, q_max: int):
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            if p + q > 0:
                yield pj.ambient(p, q)


def check_proj_relations(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(cfg.p_max, cfg.q_max):
        params = {"p": amb.p, "q": amb.q}
        z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
        cw, cxw = pj.gen_cw(amb), pj.gen_cxw(amb)
        xi = pj.ProjClass.from_point(amb, pt.p_sym(("xi", 1)))
        e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
        onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
        rec.eq("rel_zeta0_zeta1", params, z0 * z1, xi)
        rec.eq("rel_tensor", params, z1 * cxw - onemk * z0 * cw, e2)
        rec.eq("rel_annihilation", params,
               cw ** amb.p * cxw ** amb.q, pj.ProjClass.zero(amb))
        # divided-class defining property
        for k in range(1, 5):
            lhs = (z0 ** k) * pj.divided(amb, k, 0)
            rec.eq("divided_zeta0", dict(params, k=k), lhs,
                   pj.ProjClass.from_mono(amb, (0, 0, amb.p, 0)))
            lhs = (z1 ** k) * pj.divided(amb, k, 1)
            rec.eq("divided_zeta1", dict(params, k=k), lhs,
                   pj.ProjClass.from_mono(amb, (0, 0, 0, amb.q)))
        # shadow consistency of the defining relation
        lhs, rhs = z1 * cxw, onemk * z0 * cw + e2
        rec.check("rel_tensor_shadows", params,
                  lhs.rho() == rhs.rho() and lhs.fixed() == rhs.fixed())
        # restriction / fixed-point characterizations of zeta powers
        for k in range(1, min(amb.q, 4) + 1):
            zk = z0 ** k
            ok = zk.rho() == {(2 * k, -k, 0): 1} and zk.fixed() == ({}, {0: 1})
            rec.check("powers_of_zeta0_shadows", dict(params, k=k), ok)
        for k in range(1, min(amb.p, 4) + 1):
            zk = z1 ** k
            ok = zk.rho() == {(0, k, 0): 1} and zk.fixed() == ({0: 1}, {})
            rec.check("powers_of_zeta1_shadows", dict(params, k=k), ok)


def check_freeness(rec: Recorder, cfg: SweepConfig) -> None:
    for s in range(1, cfg.pq_sum_max + 1):
        for p in range(s + 1):
            amb = pj.ambient(p, s - p)
            params = {"p": amb.p, "q": amb.q}
            n = amb.p + amb.q
            monos = []
            ok_count, ok_pattern = True, True
            a_values: dict = {}
            for m in range(-(n + 2), n + 3):
                basis = amb.basis(m)
                if len(basis) != n or len(set(basis)) != n:
                    ok_count = False
                avals = []
                for i, mono in enumerate(basis):
                    d = pj.mono_degree_pib(mono)
                    rc = (d - m * (pj.mono_degree_pib((0, 1, 0, 0)))).to_roc2()
                    a, b = rc.trivial_rank // 2, rc.sign_rank // 2
                    if a + b != i or rc.trivial_rank % 2 or rc.sign_rank % 2:
                        ok_pattern = False
                    avals.append(a)
                a_values[m] = avals
                monos.extend(basis)
            rec.check("basis_count", params, ok_count,
                      f"expected {n} elements per coset")
            rec.check("basis_grading_pattern", params, ok_pattern)
            ok_two = all(max(avals.count(v) for v in set(avals)) <= 2
                         for avals in a_values.values())
            rec.check("basis_at_most_two_slots", params, ok_two)
            pairs = [(ma, mb) for i, ma in enumerate(monos) for mb in monos[i:]]
            # product monomials whose reduction passed: many pairs share
            # one, and each is reduced once.  A monomial enters only after
            # it passed, so the first failing pair is still the one found.
            reduced = set()

            def escape(pair):
                mono = pj.mono_mul(*pair)
                if mono in reduced:
                    return None
                prod = pj.ProjClass.from_mono(amb, mono)
                try:
                    prod.reduce_to_basis()
                except Exception as exc:  # escape from the basis = bug
                    return exc
                reduced.add(mono)
                return None

            bad = _first_failure(pairs, escape)
            if bad is None:
                rec.ok("freeness_products", params, cases=len(pairs))
            else:
                (ma, mb), exc = bad
                rec.fail("freeness_products", dict(params, a=ma, b=mb), f"{exc}")


# the coefficients of the random classes, in the order rng.choice reads them
_RANDOM_COEFFS = (pt.p_int(1), pt.p_int(2), pt.p_int(-1), pt.p_sym(pt.S_G),
                  pt.p_sym(("e", 1)), pt.p_sym(("e", 2)), pt.p_sym(("xi", 1)),
                  pt.p_sym(("eik", 2)), pt.p_sym(("tin", 1)), pt.p_kappa())


def _random_class(rng: random.Random, amb: pj.Ambient) -> pj.ProjClass:
    out = pj.ProjClass.zero(amb)
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-(amb.p + amb.q), amb.p + amb.q)
        basis = amb.basis(m)
        mono = basis[rng.randrange(len(basis))]
        out = out + pj.ProjClass.from_mono(amb, mono, rng.choice(_RANDOM_COEFFS))
    return out


def check_random_homs(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(cfg.p_max, cfg.q_max):
        params = {"p": amb.p, "q": amb.q, "pairs": cfg.random_pairs,
                  "seed": cfg.seed}
        rng = random.Random(f"{cfg.seed}:{amb.p}:{amb.q}:homs")
        pairs = ((_random_class(rng, amb), _random_class(rng, amb))
                 for _ in range(cfg.random_pairs))

        def differs(pair):
            x, y = pair
            prod = x * y
            if prod.rho() != l_mul(x.rho(), y.rho(), amb.p + amb.q):
                return "rho_ring_hom", "rho(ab) != rho(a)rho(b)"
            (x0, x1), (y0, y1) = _fixed_shadows(x), _fixed_shadows(y)
            if _fixed_shadows(prod) != (l_mul(x0, y0, amb.p), l_mul(x1, y1, amb.q)):
                return "fixed_ring_hom", "(ab)^C2 != a^C2 b^C2"
            return None

        bad = _first_failure(pairs, differs)
        if bad is None:
            rec.ok("rho_ring_hom", params, cases=cfg.random_pairs)
            rec.ok("fixed_ring_hom", params, cases=cfg.random_pairs)
        else:
            (x, y), (name, detail) = bad
            rec.fail(name, params, detail, render.proj_text(x), render.proj_text(y))


def check_frobenius_module(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(min(cfg.p_max, 3), min(cfg.q_max, 3)):
        params = {"p": amb.p, "q": amb.q}
        gens = [pj.gen_zeta0(amb), pj.gen_zeta1(amb), pj.gen_cw(amb),
                pj.gen_cxw(amb), pj.class_Q(amb), pj.class_chi_Q(amb)]
        trunc = amb.p + amb.q
        cases = itertools.product(gens, range(-2, 3), range(-2, 3), range(trunc))

        def differs(case):
            y, a, b, k = case
            x = {(2 * a, b, k): 1}
            lhs = y * pj.proj_tau(amb, x)
            rhs = pj.proj_tau(amb, l_mul(y.rho(), x, trunc))
            return None if lhs == rhs else (lhs, rhs)

        bad = _first_failure(cases, differs)
        if bad is None:
            rec.ok("frobenius_module", params, cases=len(gens) * 25)
        else:
            (_, a, b, k), (lhs, rhs) = bad
            rec.fail("frobenius_module", dict(params, a=2 * a, b=b, k=k),
                     "y tau(x) != tau(rho(y) x)",
                     render.proj_text(lhs), render.proj_text(rhs))


# ---------------------------------------------------------------------------
# the lemma suite

def check_lemma_suite(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(cfg.p_max, cfg.q_max):
        params = {"p": amb.p, "q": amb.q}
        p, q = amb.p, amb.q
        # Q from generator products, not the memoised S_1 unit that the
        # right-hand sides read
        Q = bd.euler_line_raw(amb, bd.LineBundleSpec("II", 2))
        Q_pow = functools.cache(Q.__pow__)   # each Q ** k once, through __pow__
        chiQ = pj.class_chi_Q(amb)
        z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
        cw, cxw = pj.gen_cw(amb), pj.gen_cxw(amb)
        xi = pj.ProjClass.from_point(amb, pt.p_sym(("xi", 1)))
        kmax = min(p + q + 1, 6)

        # powers of the quadric class, both stated forms
        # Q^k = 2^{k-1} (tau(c^k) + e^{-2k} kappa c_w^k c_xw^k), via the
        # transfer witness rather than repeated multiplication
        for k in range(kmax + 1):
            rec.eq("lemma_q_powers", dict(params, k=k), Q_pow(k),
                   pj.linear_combination(amb, [pj.s_kernel_pair(amb, pj.UNIT, k, 1 << k)]))
        for k in range(1, kmax + 1):
            second = pj.proj_tau(amb, {(0, 0, k): 1 << (k - 1)})
            eik = pt.p_sym(("eik", 2))
            acc = pt.p_int(1)
            for _ in range(k):
                acc = pt.p_mul(acc, eik)
            second = second + pj.ProjClass.from_mono(amb, (0, 0, k, k), acc)
            rec.eq("lemma_q_powers_second_form", dict(params, k=k),
                   Q_pow(k), second)

        # conversion of zeta powers against quadric powers
        for i in range(1, min(p + q + 2, 6)):
            for k in range(0, i):
                rec.eq("lemma_q_conversion_i", dict(params, i=i, k=k),
                       (z0 ** i) * Q_pow(k),
                       ((z0 ** (i - k)) * (cxw ** k)).scale(1 << k))
                rec.eq("lemma_q_conversion_ii", dict(params, i=i, k=k),
                       (z1 ** i) * Q_pow(k),
                       ((z1 ** (i - k)) * (cw ** k)).scale(1 << k))
        for k in range(1, min(p + q + 1, 5) + 1):
            for i in range(1, k + 1):
                rec.eq("lemma_q_conversion_iii", dict(params, i=i, k=k),
                       (z0 ** i) * Q_pow(k),
                       (z0 * (cxw ** (i - 1)) * Q_pow(k - i + 1)).scale(1 << (i - 1)))
                rec.eq("lemma_q_conversion_iv", dict(params, i=i, k=k),
                       (z1 ** i) * Q_pow(k),
                       (z1 * (cw ** (i - 1)) * Q_pow(k - i + 1)).scale(1 << (i - 1)))

        # xi Q^k = 2^{k-1} tau(iota^2 c^k)
        for k in range(1, p + q + 1):
            rhs = pj.proj_tau(amb, {(2, 0, k): 1 << (k - 1)})
            rec.eq("lemma_xi_q", dict(params, k=k), xi * Q_pow(k), rhs)

        # twisted powers with binary-digit coefficients
        for k in range(kmax + 1):
            rhs = pj.ProjClass.zero(amb)
            for j in range(k + 1):
                if math.comb(k, j) % 2:
                    rhs = rhs + pj.ProjClass.from_mono(amb, (j, k - j, j, k - j))
            c = ((1 << k) - (1 << bd.beta(k))) // 2
            if c:
                rhs = rhs + pj.proj_tau(amb, {(2 * k, 0, k): c})
            rec.eq("lemma_chi_q_powers", dict(params, k=k), chiQ ** k, rhs)

        # (Q chiQ)^k
        for k in range(1, min(p + q, 5) + 1):
            rhs = pj.proj_tau(amb, {(2 * k, 0, 2 * k): (1 << (k - 1)) * ((1 << k) - 1)})
            rhs = rhs + pj.ProjClass.from_mono(amb, (0, 0, k, k), 1 << k)
            rec.eq("lemma_q_chi_q", dict(params, k=k), (Q * chiQ) ** k, rhs)

        # the tensor relation and the two quadric rewrites
        e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
        onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
        rec.eq("eqn_tensor", params, z1 * cxw - onemk * z0 * cw, e2)
        rec.eq("eqn_zeta02_q", params, z0 * z0 * Q, (z0 * cxw).scale(2))
        rec.eq("eqn_zeta12_q", params, z1 * z1 * Q, (z1 * cw).scale(2))
        rec.eq("eqn_chi_q_tau_form", params, chiQ,
               pj.proj_tau(amb, {(2, 0, 1): 1}) + e2)

        # divisibility and product identities for saturated powers
        for k in range(0, min(p, 4) + 1):
            target = (cw ** (p - k)) * Q_pow(k)
            for i in range(1, 4):
                quot = _saturated_quotient(amb, 0, k, i)
                rec.eq("lemma_simplification_div0",
                       dict(params, k=k, i=i), (z0 ** i) * quot, target)
            for i in range(1, 3):
                lhs = Q_pow(i) * target
                rhs = ((cxw ** i) * _saturated_quotient(amb, 0, k, i)).scale(1 << i)
                rec.eq("lemma_simplification_prod0",
                       dict(params, k=k, i=i), lhs, rhs)
        for k in range(0, min(q, 4) + 1):
            target = (cxw ** (q - k)) * Q_pow(k)
            for i in range(1, 4):
                quot = _saturated_quotient(amb, 1, k, i)
                rec.eq("lemma_simplification_div1",
                       dict(params, k=k, i=i), (z1 ** i) * quot, target)
            for i in range(1, 3):
                lhs = Q_pow(i) * target
                rhs = ((cw ** i) * _saturated_quotient(amb, 1, k, i)).scale(1 << i)
                rec.eq("lemma_simplification_prod1",
                       dict(params, k=k, i=i), lhs, rhs)


def _saturated_quotient(amb: pj.Ambient, side: int, k: int, i: int) -> pj.ProjClass:
    """zeta0^{-i} c_w^{p-k} Q^k (side 0) or its mirror, built from the
    saturated form 2^{k-1} c_w^p (tau(zeta^{-k}) + e^{-2k} kappa c_xw^k)."""
    p, q = amb.p, amb.q
    if k == 0:
        mono = (-i, 0, p, 0) if side == 0 else (0, -i, 0, q)
        return pj.ProjClass.from_mono(amb, mono)
    scale = 1 << (k - 1)
    if side == 0:
        tau_part = pj.proj_tau(amb, {(-2 * i, p + i - k, p): scale})
        kappa = pj.ProjClass.from_mono(
            amb, (-i, 0, p, k), pt.p_scale(pt.p_kappa(2 * k), scale))
    else:
        tau_part = pj.proj_tau(amb, {(2 * (q - k), k - q - i, q): scale})
        kappa = pj.ProjClass.from_mono(
            amb, (0, -i, k, q), pt.p_scale(pt.p_kappa(2 * k), scale))
    return tau_part + kappa


# ---------------------------------------------------------------------------
# Euler classes

_BLOCK_SPACES = ((1, 1), (2, 2), (3, 2), (2, 3), (1, 4), (3, 0), (0, 3))


def check_base_case(rec: Recorder, cfg: SweepConfig) -> None:
    for (p, q) in _BLOCK_SPACES:
        amb = pj.ambient(p, q)
        params = {"p": p, "q": q}
        for k in range(-4, 5):
            for fam, d in (("I", 2 * k + 1), ("II", 2 * k),
                           ("III", 2 * k + 1), ("IV", 2 * k)):
                spec = bd.LineBundleSpec(fam, d)
                rec.eq("base_case_two_forms", dict(params, family=fam, d=d),
                       bd.euler_line(amb, spec), bd.euler_line_raw(amb, spec))


def _block_products(amb: pj.Ambient):
    """block(fam, degs): unit * L(d1) * L(d2) * ... on amb for the line
    bundles (fam, d) with d in the tuple degs, built as its prefix's
    block times one line class.  Blocks and line classes are computed on
    first use and shared after, so a failure surfaces at the first block
    that needs it."""
    line = functools.cache(lambda fam, d: bd.euler_line(amb, bd.LineBundleSpec(fam, d)))
    blocks = {(fam, ()): pj.ProjClass.unit(amb) for fam in bd.FAMILIES}

    def block(fam: str, degs: tuple) -> pj.ProjClass:
        n = len(degs)
        while (fam, degs[:n]) not in blocks:
            n -= 1
        cls = blocks[fam, degs[:n]]
        for k in range(n, len(degs)):
            cls = blocks[fam, degs[:k + 1]] = cls * line(fam, degs[k])
        return cls

    return block


def check_type_blocks(rec: Recorder, cfg: SweepConfig) -> None:
    deg_options = {fam: [2 * k + 1 if fam in ("I", "III") else 2 * k
                         for k in range(-4, 5)] for fam in bd.FAMILIES}
    for (p, q) in _BLOCK_SPACES:
        amb = pj.ambient(p, q)
        block_product = _block_products(amb)
        # the closed forms read only (size, degree product), which
        # multisets share: each is computed once
        binomial = functools.cache(functools.partial(bd.euler_type_block_binomial, amb))
        for fam in bd.FAMILIES:
            params = {"p": p, "q": q, "family": fam}
            closed = functools.cache(functools.partial(bd.euler_type_block, amb, fam))
            for size in range(0, 4):
                for degs in itertools.combinations_with_replacement(
                        deg_options[fam], size):
                    prod = block_product(fam, degs)
                    dprod = math.prod(degs)
                    block = closed(size, dprod)
                    if not rec.eq("type_block_vs_product",
                                  dict(params, degrees=list(degs)),
                                  block, prod):
                        return
                    if fam == "IV":
                        alt = binomial(size, dprod)
                        rec.eq("type_block_iv_binomial",
                               dict(params, degrees=list(degs)), block, alt)
    # the odd-by-odd closed product
    for (p, q) in ((2, 2), (3, 2), (4, 3)):
        amb = pj.ambient(p, q)
        for nI in range(0, 3):
            for nIII in range(0, 3):
                for dI in _odd_products(nI):
                    for dIII in _odd_products(nIII):
                        lhs = bd.euler_I_and_III(amb, nI, dI, nIII, dIII)
                        rhs = (bd.euler_type_block(amb, "I", nI, dI)
                               * bd.euler_type_block(amb, "III", nIII, dIII))
                        rec.eq("lemma_i_and_iii",
                               {"p": p, "q": q, "nI": nI, "dI": dI,
                                "nIII": nIII, "dIII": dIII}, lhs, rhs)


def _odd_products(n: int) -> list:
    return sorted({math.prod(degs) for degs
                   in itertools.combinations_with_replacement((1, 3, 5, 7), n)})


# ---------------------------------------------------------------------------
# the main grid: closed forms + Bezout

def _family_multisets(cfg: SweepConfig, family: str) -> list:
    opts = cfg.degrees(family)
    out = []
    for size in range(cfg.max_bundles_per_family + 1):
        out.extend(itertools.combinations_with_replacement(sorted(opts), size))
    return out


class _GridHalf:
    """The bundles of a grid sum from two families, I and II or III and
    IV: a degree tuple per family, their counts (the shape) and degree
    products, and their Euler class, computed on first use."""

    def __init__(self, block, families: tuple, degrees: tuple):
        self._block = block
        self.families = families
        self.degrees = degrees
        self.shape = (len(degrees[0]), len(degrees[1]))
        self.degs = (math.prod(degrees[0]), math.prod(degrees[1]))

    @functools.cached_property
    def cls(self) -> pj.ProjClass:
        (fa, fb), (ta, tb) = self.families, self.degrees
        return self._block(fa, ta) * self._block(fb, tb)

    def specs(self) -> tuple:
        return tuple(bd.LineBundleSpec(f, d)
                     for f, t in zip(self.families, self.degrees) for d in t)


def bundle_grid(cfg: SweepConfig, amb: pj.Ambient) -> tuple:
    """The bundle multisets of the grid on amb that satisfy the
    closed-form hypotheses, each split into its halves: families I+II
    and families III+IV.

    Returns ([(left half, right half), ...], the number of multisets
    skipped for violating the hypotheses); the Euler class of a sum is
    left.cls * right.cls, which the caller forms.  The hypotheses read
    only the family counts, so they are decided once per count shape and
    the skipped multisets are counted, not visited.  A half's class is
    built when a sum first uses it, from block products shared across
    the enumeration."""
    cap = min(cfg.max_bundles_total, amb.p + amb.q - 1)
    fams = {f: [t for t in _family_multisets(cfg, f) if len(t) <= cap]
            for f in bd.FAMILIES}
    block = _block_products(amb)

    def halves(fa, fb):
        return [_GridHalf(block, (fa, fb), (ta, tb))
                for ta in fams[fa] for tb in fams[fb] if len(ta) + len(tb) <= cap]

    left, right = halves("I", "II"), halves("III", "IV")
    right_shapes = collections.Counter(r.shape for r in right)

    @functools.cache
    def partners(shape):
        # the right halves that make a sum inside the hypotheses with a
        # left half of this count shape, and the number that make one
        # outside them
        nI, nII = shape
        inside, outside = set(), 0
        for (nIII, nIV), count in right_shapes.items():
            n = nI + nII + nIII + nIV
            if not n or n > cap:
                continue
            if bd.violations_from_counts(amb.p, amb.q, n, nI + nII, nII + nIII):
                outside += count
            else:
                inside.add((nIII, nIV))
        return [r for r in right if r.shape in inside], outside

    sums, skipped = [], 0
    for lh in left:
        rights, outside = partners(lh.shape)
        sums.extend((lh, rh) for rh in rights)
        skipped += outside
    return sums, skipped


def _grid_invariants(amb: pj.Ambient, left: _GridHalf, right: _GridHalf) -> bd.BundleInvariants:
    return bd.invariants_from_counts(amb.p, amb.q, left.shape + right.shape,
                                     left.degs + right.degs)


def _grid_sum(amb: pj.Ambient, left: _GridHalf, right: _GridHalf) -> bd.BundleSum:
    return bd.BundleSum((amb.p, amb.q), left.specs() + right.specs())


def check_euler_grid(rec: Recorder, cfg: SweepConfig) -> None:
    coeffs: dict = {}   # (numerator, halving) -> its fault, on every space
    lines: dict = {}    # sign pattern -> its fault, on every space
    for s in range(2, cfg.pq_sum_max + 1):
        for p in range(s + 1):
            amb = pj.ambient(p, s - p)
            params = {"p": amb.p, "q": amb.q}
            sums, n_skip = bundle_grid(cfg, amb)
            reader = _NotationReader(amb, coeffs, lines)

            def case():
                # params of a failure record: the sum under check, read
                # when the record fails
                return dict(params, bundles=_grid_sum(amb, left, right).token())

            for left, right in sums:
                inv = _grid_invariants(amb, left, right)
                product = left.cls * right.cls
                branch = "closed_form_low" if inv.ell <= 0 else "closed_form_high"
                closed = bd.euler_closed_form(amb, inv)
                if not rec.eq(branch, params, closed, product, detail=case):
                    return
                exp = sb.bezout_expansion(inv)
                cls = sb.expansion_class(exp, amb)
                if not rec.eq("bezout_theorem", params, cls, product, detail=case):
                    return
                fault = reader.fault(exp)
                rec.check("bezout_two_notations", params, not fault,
                          fault and f"{fault} for {case()}")
                if inv.m == 1:
                    d0 = sb.special_case("dim0", inv)
                    rec.eq("corollary_dim0", params,
                           sb.expansion_class(d0, amb), product, detail=case)
                    counts = _dim0_counts(d0)
                    ok = counts == (inv.Delta0, inv.Delta1,
                                    (inv.Delta - inv.Delta0 - inv.Delta1) // 2)
                    rec.check("corollary_dim0_counts", params, ok,
                              "" if ok else f"counts {counts} for {case()}")
                elif inv.m == 2:
                    d1 = sb.special_case("dim1_table", inv)
                    rec.eq("corollary_dim1_grid", params,
                           sb.expansion_class(d1, amb), product, detail=case)
                if (inv.m, inv.m0, inv.m1, inv.ell) in ((3, 3, 3, 3), (3, 2, 1, 0)):
                    d2 = sb.special_case("dim2_examples", inv)
                    rec.eq("corollary_dim2_grid", params,
                           sb.expansion_class(d2, amb), product, detail=case)
            if n_skip:
                rec.skip("context_violations", params,
                         "outside the closed-form hypotheses", cases=n_skip)


# ---------------------------------------------------------------------------
# the printed notations, read back

class _NotationReader:
    """Checks that an expansion prints as what it is, on one ambient.

    Every printed term is read back into numbers in both notations once
    per distinct term, every printed coefficient once per distinct
    (numerator, halving) in the memo ``coeffs``, and the joined line once
    per sign pattern (the signs of the printed terms) in the memo
    ``lines``.  Readers on other ambients may share both memos, as
    coefficients and signs print the same on every space.  An expansion
    then only looks its pairs and its pattern up."""

    def __init__(self, amb: pj.Ambient, coeffs: dict, lines: dict):
        self.amb = amb
        self._terms: dict = {}    # term -> (has_half(term), its fault)
        self._coeffs = coeffs     # (numerator, halving) -> its fault
        self._lines = lines       # sign pattern -> its fault

    def fault(self, exp: sb.BezoutExpansion) -> str:
        """The first fault among the printed (numerator, term) pairs of
        an expansion, then of its joined line, or "" if every one reads
        back right."""
        pattern = []
        for num, term in exp.terms:
            read = self._terms.get(term)
            if read is None:
                read = self._terms[term] = (sb.has_half(term),
                                            _term_fault(term, self.amb))
            halving, fault = read
            if fault:
                return fault
            key = (num, halving)
            fault = self._coeffs.get(key)
            if fault is None:
                fault = self._coeffs[key] = _numerator_fault(num, term)
            if fault:
                return f"{fault}, on {term!r}"
            pattern.append(num < 0)
        pattern = tuple(pattern)
        fault = self._lines.get(pattern)
        if fault is None:
            fault = self._lines[pattern] = _line_fault(exp, self.amb)
        return fault


_LEAF_PATTERNS = {
    "dim": (("S", re.compile(r"S~\^(-?\d+)_\{(-?\d+),(-?\d+)\}")),
            ("X", re.compile(r"X\^\{(-?\d+),(-?\d+)\}")),
            ("Fr", re.compile(r"Fr_(-?\d+)"))),
    "codim": (("S", re.compile(r"S~_(-?\d+)\((-?\d+),(-?\d+)\)")),
              ("X", re.compile(r"Y_(-?\d+)\((-?\d+),(-?\d+)\)")),
              ("Fr", re.compile(r"Fr\((-?\d+)\)"))),
}
_NUMERATOR = re.compile(r"(?:(\d+) )?")
_SEPARATOR = re.compile(r" ([+-]) ")


def _read_leaf(text: str, amb: pj.Ambient, notation: str):
    """The stratum one printed leaf names, in affine data: ("S", i, p_i,
    q_i) for a binate stratum, ("X", pp, qq) for an invariant subvariety
    X^{pp,qq}, ("Fr", d) for a free orbit of dimension d; None if the
    text is not a leaf of the notation.  The codimension notation gives
    lambda = p + q - dimension, lambda+ = p - p_i and lambda- = q - q_i."""
    if text in ("pt+", "pt-"):
        return ("X", 1, 0) if text == "pt+" else ("X", 0, 1)
    p, q = amb.p, amb.q
    for kind, pattern in _LEAF_PATTERNS[notation]:
        m = pattern.fullmatch(text)
        if m is None:
            continue
        nums = [int(g) for g in m.groups()]
        if notation == "dim":
            return (kind, *nums)
        if kind == "Fr":
            return ("Fr", p + q - nums[0])
        lam, lp, lm = nums
        if kind == "S":
            return ("S", p + q - lam, p - lp, q - lm)
        return ("X", p - lp, q - lm) if lam == lp + lm else None
    return None


def _read_term(text: str, amb: pj.Ambient, notation: str):
    """A printed term read back: one leaf for a bare term, else a tuple
    of the ';'-separated pieces of [...]*, each a tuple of the leaves
    its ' u ' joins."""
    if text.startswith("[") and text.endswith("]*"):
        return tuple(tuple(_read_leaf(leaf, amb, notation) for leaf in piece.split(" u "))
                     for piece in text[1:-2].split("; "))
    return _read_leaf(text, amb, notation)


def _term_reading(term, notation: str):
    """What the printed term must read back as (see _read_term), from the
    term's own fields."""
    if isinstance(term, sb.FreeOrbit):
        return ("Fr", term.affine_dim)
    if isinstance(term, sb.FixedPoint):
        return ("X", 1, 0) if term.component == 0 else ("X", 0, 1)
    if isinstance(term, sb.InvariantChain):
        pp, qq, i, j = term
        pieces = [(("X", pp, qq),)]
        mids = []
        if j:
            mids.append(("X", pp - j, qq))
        if i:
            mids.append(("X", pp, qq - i))
        if mids:
            pieces.append(tuple(mids))
        if i and j:
            pieces.append((("X", pp - j, qq - i),))
        return tuple(pieces)
    if isinstance(term, sb.BinatePair):
        i, p_i, q_i = term.i, term.p_i, term.q_i
        if sb.has_half(term):
            # twice the invariant subvariety X^{p_i,q_i}, printed as that
            return ((("X", p_i, q_i),),)
        levels = [(i, p_i, q_i)]
        if term.singular == "zeta0":
            levels.append((i - 1, p_i, q_i - 1))
        elif term.singular == "zeta1":
            levels.append((i - 1, p_i - 1, q_i))
        if notation == "dim":   # which clamps the fixed indices at 0
            levels = [(a, max(b, 0), max(c, 0)) for a, b, c in levels]
        return tuple((("S", *level),) for level in levels)
    raise TypeError(f"unknown term {term!r}")


def _term_fault(term, amb: pj.Ambient) -> str:
    """Why a term, printed as an expansion prints it, does not read back
    as its own fields in one of the two notations; "" if it does."""
    _, shown = render.display_term(term)
    for notation in ("dim", "codim"):
        want = _term_reading(term, notation)
        text = render.term_text(shown, amb, notation)
        got = _read_term(text, amb, notation)
        if got != want:
            return f"{term!r} prints as {text!r} in {notation} notation, read back as {got}"
    return ""


def _numerator_fault(num: int, term) -> str:
    """Why the magnitude of the coefficient num/2 of a term, printed as
    an expansion prints it, does not read back as |num|/2; "" if it
    does.  A term with a canonical half prints as the subvariety it is
    twice of, so its coefficient must read back doubled."""
    factor, _ = render.display_term(term)
    text = render.numerator_text(factor * num)
    m = _NUMERATOR.fullmatch(text)
    got = None if m is None else 2 * int(m.group(1) or 1)
    want = abs(2 * num if sb.has_half(term) else num)
    if got != want:
        return (f"the coefficient magnitude {want}/2 prints as {text!r}, "
                f"read back as {got}/2")
    return ""


def _line_fault(exp: sb.BezoutExpansion, amb: pj.Ambient) -> str:
    """Why the joined line of an expansion, in one of the two notations,
    does not split back (inverting the joiner) into the signs of its
    numerators and the printed magnitudes of its terms; "" if it does."""
    for notation in ("dim", "codim"):
        want = [(num < 0, render.numerator_text(factor * num)
                 + render.term_text(shown, amb, notation))
                for num, term in exp.terms
                for factor, shown in [render.display_term(term)]] or [(False, "0")]
        line = render.expansion_text(exp, amb, notation)
        lead = line.startswith("-")
        parts = _SEPARATOR.split(line[lead:])
        got = [(lead, parts[0])] + [(sign == "-", body) for sign, body
                                    in zip(parts[1::2], parts[2::2])]
        if got != want:
            signs = "".join("-" if neg else "+" for neg, _ in want)
            return (f"a line of signs {signs!r} prints as {line!r} in {notation} "
                    f"notation, split back as {got}")
    return ""


def _dim0_counts(exp: sb.BezoutExpansion) -> tuple:
    plus = minus = free = 0
    for num, term in exp.terms:
        if isinstance(term, sb.FixedPoint):
            if term.component == 0:
                plus += num // 2
            else:
                minus += num // 2
        elif isinstance(term, sb.FreeOrbit):
            free += num // 2
    return plus, minus, free


# ---------------------------------------------------------------------------
# dictionary identities

def check_dictionary(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(min(cfg.p_max, 4), min(cfg.q_max, 4)):
        if amb.p < 1 or amb.q < 1:
            continue
        p, q = amb.p, amb.q
        params = {"p": p, "q": q}
        # Q from generator products, not the memoised S_1 unit that the
        # binate classes read
        Q = bd.euler_line_raw(amb, bd.LineBundleSpec("II", 2))
        z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
        rec.eq("cor_q1", params,
               sb.class_of(sb.BinatePair(p + q - 1, p - 1, q - 1), amb), Q)
        for k in range(0, p + q):
            term = sb.BinatePair(p + q - k, p - k, q - k)
            lhs = Q ** k
            rhs = sb.class_of(term, amb).scale(1 << (k - 1)) if k else None
            if k == 0:
                rec.eq("cor_qk", dict(params, k=k),
                       sb.class_of(term, amb), pj.ProjClass.unit(amb).scale(2))
            else:
                rec.eq("cor_qk", dict(params, k=k), lhs, rhs)
            for tag, zeta in (("zeta0", z0), ("zeta1", z1)):
                sterm = sb.BinatePair(p + q - k, p - k, q - k, tag)
                lhs2 = zeta * lhs
                if k == 0:
                    rec.eq("prop_zeta_qk", dict(params, k=k, side=tag),
                           sb.class_of(sterm, amb), zeta.scale(2))
                else:
                    rec.eq("prop_zeta_qk", dict(params, k=k, side=tag),
                           lhs2, sb.class_of(sterm, amb).scale(1 << (k - 1)))
        # the representation formula, including clamped negative indices
        for i in range(0, p + q):
            for p_i in range(-2, p + 1):
                for q_i in range(-2, q + 1):
                    if p_i + q_i > i or i - q_i > p or i - p_i > q:
                        continue
                    term = sb.BinatePair(i, p_i, q_i)
                    rec.eq("prop_schubert_represents",
                           dict(params, i=i, p_i=p_i, q_i=q_i),
                           sb.class_of(term, amb),
                           _schubert_branch_formula(amb, i, p_i, q_i))
                    if i - p_i - q_i == 0:
                        rec.eq("prop_schubert_defect0",
                               dict(params, i=i, p_i=p_i, q_i=q_i),
                               sb.class_of(term, amb),
                               pj.ProjClass.from_mono(
                                   amb, (0, 0, p - p_i, q - q_i), 2))
        # chains and their products with the fundamental classes
        for pp in range(0, p + 1):
            for qq in range(0, q + 1):
                for i in range(0, min(qq, 2) + 1):
                    for j in range(0, min(pp, 2) + 1):
                        term = sb.InvariantChain(pp, qq, i, j)
                        rec.eq("cor_cs_times_zetas",
                               dict(params, pp=pp, qq=qq, i=i, j=j),
                               sb.class_of(term, amb),
                               (z0 ** i) * (z1 ** j)
                               * pj.ProjClass.from_mono(
                                   amb, (0, 0, p - pp, q - qq)))
        terms, total = sb.chiQ_class(amb)
        rec.eq("prop_chi_q", params, total, pj.class_chi_Q(amb))
        # divided pushforwards: zeta0^k (zeta0^{-k} c_w^p c_xw^{q-qq}) etc.
        for k in range(1, 4):
            for qq in range(0, q):
                lhs = (z0 ** k) * pj.divided(amb, k, 0, extra_cxw=q - qq - 1)
                rec.eq("divided_pushforward0", dict(params, k=k, qq=qq),
                       lhs, pj.ProjClass.from_mono(amb, (0, 0, p, q - qq - 1)))


def _schubert_branch_formula(amb: pj.Ambient, i: int, p_i: int, q_i: int) -> pj.ProjClass:
    p, q = amb.p, amb.q
    k = i - p_i - q_i
    tau_part = pj.proj_tau(
        amb, {(2 * (q - (i - p_i)), (p - p_i) - (q - q_i), p + q - i): 1})
    if p_i >= 0 and q_i >= 0:
        kappa = pj.ProjClass.from_mono(
            amb, (0, 0, p - p_i, q - q_i), pt.p_kappa(2 * k))
    elif p_i < 0 <= q_i:
        kappa = pj.ProjClass.from_mono(
            amb, (p_i, 0, p, q - q_i), pt.p_kappa(2 * (i - q_i)))
    elif q_i < 0 <= p_i:
        kappa = pj.ProjClass.from_mono(
            amb, (0, q_i, p - p_i, q), pt.p_kappa(2 * (i - p_i)))
    else:
        kappa = pj.ProjClass.zero(amb)
    return tau_part + kappa


# ---------------------------------------------------------------------------
# corollaries of the main theorem

_DIM1_CASES = [
    # (p, q, bundle tokens) realizing each cell of the dimension-1 table
    (3, 3, "O(1),xO(1),xO(2),xO(2)"),    # (2,2)
    (3, 3, "O(1),xO(1),xO(1),xO(2)"),    # (2,1)
    (3, 3, "O(1),O(2),xO(2),xO(2)"),     # (1,2)
    (3, 2, "O(1),xO(1),xO(1)"),          # (2,0)
    (4, 2, "O(1),O(2),xO(1),xO(1)"),     # (2,-1)
    (2, 2, "O(2),xO(2)"),                # (1,1) equal degrees
    (3, 3, "O(1),O(2),xO(3),xO(2)"),     # (1,1) distinct degrees
    (2, 2, "O(2),xO(1)"),                # (1,0)
    (3, 1, "O(2),O(2)"),                 # (1,-1)
    (2, 4, "O(1),O(2),xO(1),xO(2)"),     # (0,2)
    (2, 3, "O(1),O(2),xO(1)"),           # (0,1)
    (2, 2, "O(2),O(2)"),                 # (0,0)
]

_DIM2_CASES = [
    (3, 3, "xO(2),xO(2),xO(2)"),         # m = m0 = m1 = l = 3
    (3, 3, "xO(2),xO(2),xO(4)"),
    (3, 2, "O(2),xO(2)"),                # m = 3, m0 = 2, m1 = 1
    (4, 3, "O(3),O(2),xO(1),xO(2)"),
]


def check_corollaries(rec: Recorder, cfg: SweepConfig) -> None:
    # codimension 1, all four families, k in -3..3
    for (p, q) in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        amb = pj.ambient(p, q)
        for k in range(-3, 4):
            for fam, d in (("I", 2 * k + 1), ("II", 2 * k),
                           ("III", 2 * k + 1), ("IV", 2 * k)):
                spec = bd.LineBundleSpec(fam, d)
                bs = bd.BundleSum((p, q), (spec,))
                inv = bd.bundle_invariants(bs)
                params = {"p": p, "q": q, "family": fam, "k": k}
                exp = sb.special_case("codim1", inv)
                rec.eq("corollary_codim1", params,
                       sb.expansion_class(exp, amb),
                       bd.euler_line(amb, spec))
                rec.eq("corollary_codim1_vs_bezout", params,
                       sb.expansion_class(exp, amb),
                       sb.expansion_class(sb.bezout_expansion(inv), amb))
    # dimension-1 table
    seen_cells = set()
    for (p, q, tokens) in _DIM1_CASES:
        amb = pj.ambient(p, q)
        bs = bd.BundleSum((p, q), bd.parse_bundles(tokens))
        inv = bd.bundle_invariants(bs)
        params = {"p": p, "q": q, "bundles": tokens}
        exp = sb.special_case("dim1_table", inv)
        seen_cells.add(exp.label)
        rec.eq("corollary_dim1_table", dict(params, cell=exp.label),
               sb.expansion_class(exp, amb), bd.euler_product(amb, bs))
        rec.eq("corollary_dim1_vs_bezout", dict(params, cell=exp.label),
               sb.expansion_class(exp, amb),
               sb.expansion_class(sb.bezout_expansion(inv), amb))
    rec.check("corollary_dim1_all_cells", {"cells": sorted(seen_cells)},
              len(seen_cells) == 9, f"only {sorted(seen_cells)}")
    # dimension-2 worked cases
    for (p, q, tokens) in _DIM2_CASES:
        amb = pj.ambient(p, q)
        bs = bd.BundleSum((p, q), bd.parse_bundles(tokens))
        inv = bd.bundle_invariants(bs)
        params = {"p": p, "q": q, "bundles": tokens}
        exp = sb.special_case("dim2_examples", inv)
        rec.eq("corollary_dim2", dict(params, scenario=exp.label),
               sb.expansion_class(exp, amb), bd.euler_product(amb, bs))


# ---------------------------------------------------------------------------
# harness soundness

class _PerturbedAmbient(pj.Ambient):
    """A deliberately wrong ring: twice the e^2 term of the tensor
    relation.  It equals no real space, `pj.ambient()` never returns one,
    and it has a ring table of its own, so no real space reads its
    entries."""

    TENSOR_E2 = 2


def _mini_identities(amb: pj.Ambient) -> Recorder:
    """Two identities on a small ambient, each broken by the perturbed
    tensor rule: zeta0^i Q^k = 2^k zeta0^(i-k) c_xw^k (Lemma conversion
    (i)) and the tensor relation itself."""
    mini = Recorder()
    Q = pj.class_Q(amb)
    z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
    cxw = pj.gen_cxw(amb)
    for i in range(2, 4):
        for k in range(1, i):
            mini.eq("mini_q_conversion", {"i": i, "k": k}, (z0 ** i) * (Q ** k),
                    ((z0 ** (i - k)) * (cxw ** k)).scale(1 << k))
    e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
    onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
    mini.eq("mini_tensor", {}, z1 * cxw - onemk * z0 * pj.gen_cw(amb), e2)
    return mini


def check_soundness(rec: Recorder, cfg: SweepConfig) -> None:
    """With one rewrite rule perturbed, on a `_PerturbedAmbient`, at
    least one identity must fail."""
    mini = _mini_identities(_PerturbedAmbient(2, 2))
    failures = [r for r in mini.records if r.status == "fail"]
    rec.check("harness_soundness", {"perturbed_rule": "tensor-relation e^2"},
              len(failures) >= 1,
              "perturbing a rewrite rule did not break any identity")


# ---------------------------------------------------------------------------
# runner

CHECK_GROUPS = (
    ("point_table", check_point_table),
    ("point_axioms", check_point_axioms),
    ("grading", check_grading),
    ("proj_relations", check_proj_relations),
    ("freeness", check_freeness),
    ("random_homs", check_random_homs),
    ("frobenius_module", check_frobenius_module),
    ("lemma_suite", check_lemma_suite),
    ("base_case", check_base_case),
    ("type_blocks", check_type_blocks),
    ("euler_grid", check_euler_grid),
    ("dictionary", check_dictionary),
    ("corollaries", check_corollaries),
    ("soundness", check_soundness),
)


def run_verify(cfg: SweepConfig | None = None, groups: tuple | None = None) -> VerifyReport:
    """Run the check groups in order: all of them, or those named in
    groups.  An unknown group name is a ValueError."""
    if groups is not None:
        known = [name for name, _ in CHECK_GROUPS]
        unknown = [g for g in groups if g not in known]
        if unknown:
            raise ValueError(f"unknown check groups {', '.join(map(repr, unknown))}; "
                             f"valid groups: {', '.join(known)}")
    cfg = cfg or SweepConfig()
    rec = Recorder()
    t0 = time.perf_counter()
    for name, fn in CHECK_GROUPS:
        if groups is not None and name not in groups:
            continue
        try:
            fn(rec, cfg)
        except Exception as exc:  # any escape (subring, kernel) is red
            rec.fail(f"{name}_escape", {"group": name},
                     f"{type(exc).__name__}: {exc}")
    return VerifyReport(records=rec.records,
                        wall_time_s=time.perf_counter() - t0)


def report_text(report: VerifyReport) -> str:
    lines = []
    for r in report.ordered_records():
        mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[r.status]
        lines.append(f"{mark} {r.name} {json.dumps(r.params, sort_keys=True)}"
                     f" cases={r.cases}")
        if r.status == "fail":
            if r.detail:
                lines.append(f"     {r.detail}")
            if r.lhs is not None:
                lines.append(f"     lhs = {r.lhs}")
            if r.rhs is not None:
                lines.append(f"     rhs = {r.rhs}")
    s = report.summary()
    lines.append(f"identities: {s['pass']} passed, {s['fail']} failed, "
                 f"{s['skipped']} skipped ({s['cases']} cases, "
                 f"{s['wall_time_s']}s)")
    return "\n".join(lines)

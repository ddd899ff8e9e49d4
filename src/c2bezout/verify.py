"""Identity sweeps: every formula the kernel implements, machine-checked.

The harness runs ordered groups of checks, each comparing two classes
computed along genuinely different routes, and collects one record per
(identity, parameter block).  Failures carry both normal forms.  All
randomness is seeded, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field, asdict
from math import comb
from typing import Callable

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
        if min(self.p_max, self.q_max, self.pq_sum_max,
               self.max_bundles_per_family, self.max_bundles_total) <= 0:
            raise ValueError("all sweep bounds must be positive")
        for d in self.odd_degrees:
            if d % 2 == 0:
                raise ValueError(f"odd degree list contains even {d}")
        for d in self.even_degrees:
            if d % 2:
                raise ValueError(f"even degree list contains odd {d}")
        self.odd_degrees = tuple(self.odd_degrees)
        self.even_degrees = tuple(self.even_degrees)

    def degrees(self, family: str) -> tuple:
        base = self.odd_degrees if family in ("I", "III") else self.even_degrees
        if self.include_negative_degrees:
            return base + tuple(-d for d in base)
        return base

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        for key in ("odd_degrees", "even_degrees"):
            if key in data:
                data[key] = tuple(data[key])
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
        return asdict(self)

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
    def __init__(self):
        self.records: list = []
        self._index: dict = {}

    @staticmethod
    def _key(name: str, params: dict):
        return (name, tuple(sorted([(k, repr(v)) for k, v in params.items()])))

    def _find(self, name: str, params: dict) -> IdentityRecord | None:
        return self._index.get(self._key(name, params))

    def _insert(self, rec: IdentityRecord) -> None:
        self.records.append(rec)
        self._index[self._key(rec.name, rec.params)] = rec

    def ok(self, name: str, params: dict, cases: int = 1) -> None:
        r = self._find(name, params)
        if r is None:
            self._insert(IdentityRecord(name, params, "pass", cases))
        elif r.status == "pass":
            r.cases += cases

    def fail(self, name: str, params: dict, detail: str = "",
             lhs: str | None = None, rhs: str | None = None) -> None:
        r = self._find(name, params)
        if r is not None and r.status != "fail":
            self.records.remove(r)
            del self._index[self._key(name, params)]
            r = None
        if r is None:
            self._insert(IdentityRecord(name, params, "fail", 1,
                                        detail, lhs, rhs))

    def skip(self, name: str, params: dict, detail: str, cases: int = 1) -> None:
        r = self._find(name, params)
        if r is None:
            self._insert(IdentityRecord(name, params, "skipped",
                                        cases, detail))
        else:
            r.cases += cases

    def eq(self, name: str, params: dict, lhs: pj.ProjClass, rhs: pj.ProjClass,
           detail: Callable[[], dict] | None = None) -> bool:
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


def point_symbols_in_window(window: int) -> list:
    syms = [pt.S_ONE, pt.S_G]
    syms += [("e", m) for m in range(1, window + 1)]
    syms += [("eik", m) for m in range(1, window + 1)]
    syms += [("xi", n) for n in range(1, window // 2 + 1)]
    syms += [("tin", k) for k in range(1, window // 2 + 1)]
    for n in range(1, window // 2 + 1):
        for m in range(1, window - 2 * n + 1):
            syms.append(("exi", m, n))
    return [s for s in syms
            if abs(pt.sym_degree(s).trivial_rank) <= window
            and abs(pt.sym_degree(s).sign_rank) <= window]


def point_census(window: int) -> dict:
    """{(a, b): the window's symbols of degree a + b sigma}."""
    census: dict = {}
    for s in point_symbols_in_window(window):
        census.setdefault(pt.sym_ranks(s), []).append(s)
    return census


def point_group(syms: list) -> str:
    """The group of one degree of the point ring, read off the symbols
    spanning it: A(C2) for {1, g}, Z/2 for one 2-torsion e^m xi^n, Z for
    any other single symbol, 0 for none.  Any other span is named by its
    size, which matches no group of Fig. 1."""
    if sorted(syms) == [pt.S_ONE, pt.S_G]:
        return "A(C2)"
    if len(syms) == 1:
        return "Z/2" if syms[0][0] == "exi" else "Z"
    return f"{len(syms)} symbols" if syms else "0"


def check_point_table(rec: Recorder, window: int = 8) -> None:
    census = point_census(window)
    name = "point_table_fig1"
    params = {"window": window}
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            want = _fig1_expected(a, b)
            syms = census.get((a, b), [])
            if point_group(syms) != want:
                rec.fail(name, dict(params, a=a, b=b),
                         f"expected {want}, found symbols {syms}")
                return
    rec.ok(name, params, cases=(2 * window + 1) ** 2)
    # torsion sanity: 2 e xi = 0 but e xi != 0
    exi = pt.p_sym(("exi", 1, 1))
    rec.check("point_torsion", params,
              pt.p_scale(exi, 2) == () and exi != (),
              "2 e xi should vanish while e xi does not")


def check_point_axioms(rec: Recorder, window: int = 8) -> None:
    syms = point_symbols_in_window(window)
    vals = [pt.p_sym(s) for s in syms]
    ok_comm = all(pt.p_mul(x, y) == pt.p_mul(y, x)
                  for x, y in itertools.combinations(vals, 2))
    rec.check("point_mul_commutative", {"window": window}, ok_comm)
    small = [pt.p_sym(s) for s in point_symbols_in_window(4)]
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


def check_grading(rec: Recorder, bound: int = 4) -> None:
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

            def escape(pair):
                prod = pj.ProjClass.from_mono(amb, pj.mono_mul(*pair))
                try:
                    prod.reduce_to_basis()
                except Exception as exc:  # escape from the basis = bug
                    return exc
                return None

            bad = _first_failure(pairs, escape)
            if bad is None:
                rec.ok("freeness_products", params, cases=len(pairs))
            else:
                (ma, mb), exc = bad
                rec.fail("freeness_products", dict(params, a=ma, b=mb), f"{exc}")


def _random_class(rng: random.Random, amb: pj.Ambient) -> pj.ProjClass:
    pool = [pt.p_int(1), pt.p_int(2), pt.p_int(-1), pt.p_sym(pt.S_G),
            pt.p_sym(("e", 1)), pt.p_sym(("e", 2)), pt.p_sym(("xi", 1)),
            pt.p_sym(("eik", 2)), pt.p_sym(("tin", 1)), pt.p_kappa()]
    out = pj.ProjClass.zero(amb)
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-(amb.p + amb.q), amb.p + amb.q)
        basis = amb.basis(m)
        mono = basis[rng.randrange(len(basis))]
        out = out + pj.ProjClass.from_mono(amb, mono, rng.choice(pool))
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

def _q_power_closed(amb: pj.Ambient, k: int) -> pj.ProjClass:
    """2^{k-1} (tau(c^k) + e^{-2k} kappa c_w^k c_xw^k), via the transfer
    witness rather than repeated multiplication."""
    return pj.pushed_s_kernel(amb, pj.UNIT, k, 1 << k)


def check_lemma_suite(rec: Recorder, cfg: SweepConfig) -> None:
    for amb in _ambients(cfg.p_max, cfg.q_max):
        params = {"p": amb.p, "q": amb.q}
        p, q = amb.p, amb.q
        Q = pj.class_Q(amb)
        chiQ = pj.class_chi_Q(amb)
        z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
        cw, cxw = pj.gen_cw(amb), pj.gen_cxw(amb)
        xi = pj.ProjClass.from_point(amb, pt.p_sym(("xi", 1)))
        kmax = min(p + q + 1, 6)

        # powers of the quadric class, both stated forms
        for k in range(kmax + 1):
            rec.eq("lemma_q_powers", dict(params, k=k), Q ** k,
                   _q_power_closed(amb, k))
        for k in range(1, kmax + 1):
            second = pj.tau_c_power(amb, k).scale(1 << (k - 1))
            eik = pt.p_sym(("eik", 2))
            acc = pt.p_int(1)
            for _ in range(k):
                acc = pt.p_mul(acc, eik)
            second = second + pj.ProjClass.from_mono(amb, (0, 0, k, k), acc)
            rec.eq("lemma_q_powers_second_form", dict(params, k=k),
                   Q ** k, second)

        # conversion of zeta powers against quadric powers
        for i in range(1, min(p + q + 2, 6)):
            for k in range(0, i):
                rec.eq("lemma_q_conversion_i", dict(params, i=i, k=k),
                       (z0 ** i) * (Q ** k),
                       ((z0 ** (i - k)) * (cxw ** k)).scale(1 << k))
                rec.eq("lemma_q_conversion_ii", dict(params, i=i, k=k),
                       (z1 ** i) * (Q ** k),
                       ((z1 ** (i - k)) * (cw ** k)).scale(1 << k))
        for k in range(1, min(p + q + 1, 5) + 1):
            for i in range(1, k + 1):
                rec.eq("lemma_q_conversion_iii", dict(params, i=i, k=k),
                       (z0 ** i) * (Q ** k),
                       (z0 * (cxw ** (i - 1)) * (Q ** (k - i + 1))).scale(1 << (i - 1)))
                rec.eq("lemma_q_conversion_iv", dict(params, i=i, k=k),
                       (z1 ** i) * (Q ** k),
                       (z1 * (cw ** (i - 1)) * (Q ** (k - i + 1))).scale(1 << (i - 1)))

        # xi Q^k = 2^{k-1} tau(iota^2 c^k)
        for k in range(1, p + q + 1):
            rhs = pj.proj_tau(amb, {(2, 0, k): 1 << (k - 1)})
            rec.eq("lemma_xi_q", dict(params, k=k), xi * (Q ** k), rhs)

        # twisted powers with binary-digit coefficients
        for k in range(kmax + 1):
            rhs = pj.ProjClass.zero(amb)
            for j in range(k + 1):
                if comb(k, j) % 2:
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
            target = (cw ** (p - k)) * (Q ** k)
            for i in range(1, 4):
                quot = _saturated_quotient(amb, 0, k, i)
                rec.eq("lemma_simplification_div0",
                       dict(params, k=k, i=i), (z0 ** i) * quot, target)
            for i in range(1, 3):
                lhs = (Q ** i) * target
                rhs = ((cxw ** i) * _saturated_quotient(amb, 0, k, i)).scale(1 << i)
                rec.eq("lemma_simplification_prod0",
                       dict(params, k=k, i=i), lhs, rhs)
        for k in range(0, min(q, 4) + 1):
            target = (cxw ** (q - k)) * (Q ** k)
            for i in range(1, 4):
                quot = _saturated_quotient(amb, 1, k, i)
                rec.eq("lemma_simplification_div1",
                       dict(params, k=k, i=i), (z1 ** i) * quot, target)
            for i in range(1, 3):
                lhs = (Q ** i) * target
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

_BLOCK_AMBIENTS = ((1, 1), (2, 2), (3, 2), (2, 3), (1, 4), (3, 0), (0, 3))


def check_base_case(rec: Recorder, cfg: SweepConfig) -> None:
    for (p, q) in _BLOCK_AMBIENTS:
        amb = pj.ambient(p, q)
        params = {"p": p, "q": q}
        for k in range(-4, 5):
            for fam, d in (("I", 2 * k + 1), ("II", 2 * k),
                           ("III", 2 * k + 1), ("IV", 2 * k)):
                spec = bd.LineBundleSpec(fam, d)
                rec.eq("base_case_two_forms", dict(params, family=fam, d=d),
                       bd.euler_line(amb, spec), bd.euler_line_raw(amb, spec))


def check_type_blocks(rec: Recorder, cfg: SweepConfig) -> None:
    deg_options = {
        "I": [2 * k + 1 for k in range(-4, 5)],
        "II": [2 * k for k in range(-4, 5)],
        "III": [2 * k + 1 for k in range(-4, 5)],
        "IV": [2 * k for k in range(-4, 5)],
    }
    for (p, q) in _BLOCK_AMBIENTS:
        amb = pj.ambient(p, q)
        for fam in bd.FAMILIES:
            params = {"p": p, "q": q, "family": fam}
            for size in range(0, 4):
                for degs in itertools.combinations_with_replacement(
                        deg_options[fam], size):
                    dprod = 1
                    prod = pj.ProjClass.unit(amb)
                    for d in degs:
                        dprod *= d
                        prod = prod * bd.euler_line(amb, bd.LineBundleSpec(fam, d))
                    block = bd.euler_type_block(amb, fam, size, dprod)
                    if not rec.eq("type_block_vs_product",
                                  dict(params, degrees=list(degs)),
                                  block, prod):
                        return
                    if fam == "IV":
                        alt = bd.euler_type_block_binomial(amb, size, dprod)
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
    if n == 0:
        return [1]
    outs = set()
    for degs in itertools.combinations_with_replacement((1, 3, 5, 7), n):
        prod = 1
        for d in degs:
            prod *= d
        outs.add(prod)
    return sorted(outs)


# ---------------------------------------------------------------------------
# the main grid: closed forms + Bezout

def _family_multisets(cfg: SweepConfig, family: str) -> list:
    opts = cfg.degrees(family)
    out = []
    for size in range(cfg.max_bundles_per_family + 1):
        out.extend(itertools.combinations_with_replacement(sorted(opts), size))
    return out


def bundle_grid(cfg: SweepConfig, amb: pj.Ambient) -> tuple:
    """The bundle multisets of the grid on amb that satisfy the
    closed-form hypotheses, with the Euler classes of their two halves:
    families I+II and families III+IV.

    Returns ([(bundle sum, left class, right class), ...], the number of
    multisets skipped for violating the hypotheses); the Euler class of
    a sum is left * right, which the caller forms.  The hypotheses are
    decided from the family counts, so a BundleSum is built only for the
    sums returned.  Partial products are shared across the enumeration."""
    cap = min(cfg.max_bundles_total, amb.p + amb.q - 1)
    fams = {f: [t for t in _family_multisets(cfg, f) if len(t) <= cap]
            for f in bd.FAMILIES}
    lines = {}

    def line(fam, d):
        key = (fam, d)
        if key not in lines:
            lines[key] = bd.euler_line(amb, bd.LineBundleSpec(fam, d))
        return lines[key]

    def block(fam, degs):
        out = pj.ProjClass.unit(amb)
        for d in degs:
            out = out * line(fam, d)
        return out

    blocks = {f: {t: block(f, t) for t in fams[f]} for f in bd.FAMILIES}

    def half(fa, fb):
        # (count of fa, count of fb, specs, class) of each pair of blocks
        # within cap
        out = []
        for ta in fams[fa]:
            for tb in fams[fb]:
                if len(ta) + len(tb) <= cap:
                    specs = tuple(bd.LineBundleSpec(fa, d) for d in ta) + \
                        tuple(bd.LineBundleSpec(fb, d) for d in tb)
                    out.append((len(ta), len(tb), specs,
                                blocks[fa][ta] * blocks[fb][tb]))
        return out

    left, right = half("I", "II"), half("III", "IV")
    # right halves with at most k bundles, in enumeration order
    right_upto = [[r for r in right if r[0] + r[1] <= k] for k in range(cap + 1)]
    p, q = amb.p, amb.q
    sums, skipped = [], 0
    for nI, nII, lspecs, lcls in left:
        for nIII, nIV, rspecs, rcls in right_upto[cap - nI - nII]:
            n = nI + nII + nIII + nIV
            if not n:
                continue
            if bd.violations_from_counts(p, q, n, nI + nII, nII + nIII):
                skipped += 1
            else:
                sums.append((bd.BundleSum((p, q), lspecs + rspecs), lcls, rcls))
    return sums, skipped


def check_euler_grid(rec: Recorder, cfg: SweepConfig) -> None:
    for s in range(2, cfg.pq_sum_max + 1):
        for p in range(s + 1):
            amb = pj.ambient(p, s - p)
            params = {"p": amb.p, "q": amb.q}
            sums, n_skip = bundle_grid(cfg, amb)

            def case():
                # params of a failure record: the sum under check, read
                # when the record fails
                return dict(params, bundles=bs.token())

            for bs, left, right in sums:
                inv = bd.bundle_invariants(bs)
                product = left * right
                branch = "closed_form_low" if inv.ell <= 0 else "closed_form_high"
                closed = bd.euler_closed_form(amb, inv)
                if not rec.eq(branch, params, closed, product, detail=case):
                    return
                exp = sb.bezout_expansion(inv)
                cls = sb.expansion_class(exp, amb)
                if not rec.eq("bezout_theorem", params, cls, product, detail=case):
                    return
                ok_round = all(sb.codim_data_roundtrip(t, amb)
                               for _, t in exp.terms)
                ok_render = bool(render.expansion_text(exp, amb, "dim")) and \
                    bool(render.expansion_text(exp, amb, "codim"))
                rec.check("bezout_two_notations", params,
                          ok_round and ok_render)
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
        Q = pj.class_Q(amb)
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

def check_soundness(rec: Recorder) -> None:
    """With one rewrite rule perturbed, at least one identity must fail.

    The perturbed ring lives on a private ambient of its own (twice the
    e^2 term of the tensor relation), so no registered ambient or cache
    ever sees it."""
    amb = pj.Ambient(2, 2, tensor_e2=2)
    mini = Recorder()
    Q = pj.class_Q(amb)
    for k in range(0, 4):
        mini.eq("mini_q_powers", {"k": k}, Q ** k, _q_power_closed(amb, k))
    z0, z1 = pj.gen_zeta0(amb), pj.gen_zeta1(amb)
    cxw = pj.gen_cxw(amb)
    e2 = pj.ProjClass.from_point(amb, pt.p_sym(("e", 2)))
    onemk = pj.ProjClass.from_point(amb, pt.p_one_minus_kappa())
    mini.eq("mini_tensor", {}, z1 * cxw - onemk * z0 * pj.gen_cw(amb), e2)
    failures = [r for r in mini.records if r.status == "fail"]
    rec.check("harness_soundness", {"perturbed_rule": "tensor-relation e^2"},
              len(failures) >= 1,
              "perturbing a rewrite rule did not break any identity")


# ---------------------------------------------------------------------------
# runner

CHECK_GROUPS = (
    ("point_table", lambda rec, cfg: check_point_table(rec)),
    ("point_axioms", lambda rec, cfg: check_point_axioms(rec)),
    ("grading", lambda rec, cfg: check_grading(rec)),
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
    ("soundness", lambda rec, cfg: check_soundness(rec)),
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

"""Seeded inputs for the query_stream and cli_oneshot workloads.

Standard library only, and independent of the package under test, so a
run on any commit draws exactly the same inputs for a given seed.
`random.Random` seeded with a string hashes it with SHA-512, so the
draws do not depend on PYTHONHASHSEED either.

Size ranges.  Ambients stay at p + q <= 96 and bundle degrees at |d| <= 7,
which keeps every raw exponent far below the hundreds at which the
recursive reducer raises RecursionError, and `basis` calls stay at
p + q <= 8, far below the ~1200 at which its recursion fails.  Widening
these ranges is a change of the benchmark, not of the program.
"""

from __future__ import annotations

import random

ODD_DEGREES = (1, -1, 3, -3, 5, 7)        # families I and III
EVEN_DEGREES = (2, -2, 4, -4, 6)          # families II and IV
FAMILIES = ("I", "II", "III", "IV")

SMALL_SUM = (2, 16)      # p + q of 80% of queries: caches warm quickly
LARGE_SUM = (17, 96)     # p + q of the rest: new ambients fill caches
LARGE_EVERY = 5          # every fifth query is large
OUTSIDE_SHARE = 0.15     # sums drawn without the closed-form hypotheses
SMALL_BUNDLES = 6        # at most, on small ambients
LARGE_BUNDLES = 24       # at most, on large ambients
STREAM_LENGTH = 2000


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _token(family: str, degree: int) -> str:
    return f"{'xO' if family in ('III', 'IV') else 'O'}({degree})"


def _degree(rng: random.Random, family: str) -> int:
    return rng.choice(ODD_DEGREES if family in ("I", "III") else EVEN_DEGREES)


def _counts_inside(rng: random.Random, p: int, q: int, n: int) -> dict:
    """Family counts with n < p + q, n - q <= n0 <= n and n - p <= n1 <= n,
    where n0 = #I + #II and n1 = #II + #III (the closed-form hypotheses)."""
    n0 = rng.randint(max(0, n - q), n)
    n1 = rng.randint(max(0, n - p), n)
    c2 = rng.randint(max(0, n0 + n1 - n), min(n0, n1))
    return {"I": n0 - c2, "II": c2, "III": n1 - c2, "IV": n - n0 - n1 + c2}


def _bundles(rng: random.Random, p: int, q: int, n: int, outside: bool) -> str:
    """About n bundles; inside the hypotheses n is capped at p + q - 1."""
    if outside:
        fams = [rng.choice(FAMILIES) for _ in range(min(n, p + q + 1))]
    else:
        n = min(n, p + q - 1)
        counts = _counts_inside(rng, p, q, n)
        fams = [f for f in FAMILIES for _ in range(counts[f])]
        rng.shuffle(fams)
    return ",".join(_token(f, _degree(rng, f)) for f in fams)


def _ambient(rng: random.Random, sums: tuple) -> tuple:
    s = rng.randint(*sums)
    p = rng.randint(0, s)
    return p, s - p


def _deck(rng: random.Random, values):
    """Endless draws that run through a fresh shuffle of `values` each
    time, so every seed sees the same sizes in nearly the same proportions."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _large_queries() -> list:
    """The large queries, the same for every seed: the slowest of them
    make the p99 latency, so a seed only orders them, and the tail does
    not depend on the luck of the draw.  p + q and the bundle count are
    dealt from shuffled decks, as the small queries' p + q is."""
    rng = _rng("query_stream", "large")
    sums = _deck(rng, range(LARGE_SUM[0], LARGE_SUM[1] + 1))
    counts = _deck(rng, range(1, LARGE_BUNDLES + 1))
    return [_query(rng, next(sums), next(counts))
            for _ in range(STREAM_LENGTH // LARGE_EVERY)]


def _query(rng: random.Random, s: int, n: int) -> dict:
    p = rng.randint(0, s)
    kind = rng.choice(("euler", "bezout"))
    bundles = _bundles(rng, p, s - p, n, rng.random() < OUTSIDE_SHARE)
    return {"kind": kind, "p": p, "q": s - p, "bundles": bundles}


def query_stream(seed: int) -> list:
    """The seed's euler/bezout queries through the library API.

    Every fifth query is one of the large queries, in the seed's order;
    the rest are the seed's small queries, with p + q dealt from a
    shuffled deck."""
    rng = _rng("query_stream", seed)
    large = _large_queries()
    rng.shuffle(large)
    small = _deck(rng, range(SMALL_SUM[0], SMALL_SUM[1] + 1))
    return [large[i // LARGE_EVERY] if i % LARGE_EVERY == 0
            else _query(rng, next(small), rng.randint(1, SMALL_BUNDLES))
            for i in range(STREAM_LENGTH)]


def cli_call(rng: random.Random) -> list:
    """Arguments of one small CLI invocation, one that should exit 0."""
    kind = rng.choice(("euler", "bezout", "basis", "point-table"))
    fmt = rng.choice(("text", "latex", "json"))
    if kind == "point-table":
        return [kind, "--window", str(rng.randint(2, 10)), "--format", fmt]
    p, q = _ambient(rng, (2, 8))
    if kind == "basis":
        extra = ["--diagram"] if fmt == "text" and rng.random() < 0.5 else []
        return [kind, "--p", str(p), "--q", str(q),
                "--m", str(rng.randint(-5, 5)), "--format", fmt] + extra
    if kind == "bezout":
        # bezout refuses sums outside the hypotheses (exit 2), so its
        # inputs are drawn inside them
        n = rng.randint(1, min(p + q - 1, 5))
        counts = _counts_inside(rng, p, q, n)
        fams = [f for f in FAMILIES for _ in range(counts[f])]
        bundles = ",".join(_token(f, _degree(rng, f)) for f in fams)
        return [kind, "--p", str(p), "--q", str(q), "--bundles", bundles,
                "--notation", rng.choice(("dim", "codim")), "--format", fmt]
    n = rng.randint(1, 5)
    bundles = _bundles(rng, p, q, n, rng.random() < OUTSIDE_SHARE)
    return [kind, "--p", str(p), "--q", str(q), "--bundles", bundles, "--format", fmt]


def cli_calls(seed: int, count: int) -> list:
    rng = _rng("cli_oneshot", seed)
    return [cli_call(rng) for _ in range(count)]

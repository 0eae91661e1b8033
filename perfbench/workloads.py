"""The benchmark's fixed corpus and its three workloads.

Every basis literal here is written without spaces (all entries are at
most 9), and the harness writes each basis as a permspec basis file.  A
workload lists, per pipeline stage, which bases go through that stage and
with which parameters.  Every stage appears in every workload, because
every end-to-end metric must be defined on every run; the notes in
``NOTES.md`` say which stages each workload is built to stress and which
are small companion steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

DEFAULT_SEED = 0
PIN_DRAWS = 20

BASES = {
    "B1": ("2314", "4132", "31245"),
    "B4": ("1243", "2431", "3241"),
    "W": ("1243", "2413", "41352", "531642"),
    "L1": ("1234", "2314", "3241"),
    "L3": ("1423", "2431", "4123", "24153", "51432"),
    "Av132": ("132",),
    "Sep": ("2413", "3142"),
    "Av123": ("123",),
}


@dataclass(frozen=True)
class SimplesCmd:
    """``permspec simples`` on one basis; ``cap`` None means the default."""

    basis: str
    cap: int | None = None
    repeats: int = 1


@dataclass(frozen=True)
class ExactDraws:
    basis: str
    n: int
    k: int


@dataclass(frozen=True)
class BoltzmannDraws:
    basis: str
    z: float
    window: tuple[int, int]
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    simples: tuple[SimplesCmd, ...]
    checks: tuple[str, ...]         # bases for ``permspec check``
    max_size: int                   # its ``--max-size``
    specs: tuple[str, ...]          # bases taken basis -> spec -> counts
    depth: int                      # ``count_coefficients`` depth
    exact: tuple[ExactDraws, ...]
    boltzmann: tuple[BoltzmannDraws, ...]

    def bases(self) -> tuple[str, ...]:
        names = [c.basis for c in self.simples] + list(self.checks) + \
            list(self.specs)
        return tuple(dict.fromkeys(names))


WORKLOADS = {
    "spec-heavy": Workload(
        name="spec-heavy",
        simples=(SimplesCmd("B1", repeats=5), SimplesCmd("B4", repeats=5)),
        checks=("W",), max_size=6,
        specs=("B1", "B4"), depth=40,
        exact=(ExactDraws("B1", 30, 200), ExactDraws("B4", 30, 200)),
        boltzmann=(BoltzmannDraws("B1", 0.24, (10, 40), 150),
                   BoltzmannDraws("B4", 0.32, (10, 40), 150)),
    ),
    "count-sample-deep": Workload(
        name="count-sample-deep",
        simples=(SimplesCmd("W", repeats=11), SimplesCmd("Av132", repeats=11),
                 SimplesCmd("Sep", repeats=11)),
        checks=("W", "Av132", "Sep"), max_size=6,
        specs=("W", "Av132", "Sep"), depth=150,
        exact=(ExactDraws("W", 150, 300),),
        boltzmann=(BoltzmannDraws("W", 0.21, (50, 100), 400),),
    ),
    "search-and-check": Workload(
        name="search-and-check",
        simples=(SimplesCmd("Av123", cap=10),),
        checks=("W", "L1", "L3"), max_size=7,
        specs=("W", "L1", "L3"), depth=40,
        exact=(ExactDraws("W", 30, 300), ExactDraws("L1", 30, 300),
               ExactDraws("L3", 30, 300)),
        boltzmann=(BoltzmannDraws("W", 0.19, (10, 40), 200),
                   BoltzmannDraws("L1", 0.35, (10, 40), 200),
                   BoltzmannDraws("L3", 0.35, (10, 40), 200)),
    ),
}


def smoke(w: Workload) -> Workload:
    """The same workload at tiny sizes, for the self-test.

    B1 and B4 take tens of seconds to disambiguate at any size, so the
    smoke form of spec-heavy stands L3 in for them.
    """
    def cheap(name: str) -> str:
        return "L3" if name in ("B1", "B4") else name

    simples = tuple(dict.fromkeys(
        SimplesCmd(cheap(c.basis), 7 if c.cap else None) for c in w.simples))
    boltzmann: dict[str, BoltzmannDraws] = {}   # the first step per basis
    for d in w.boltzmann:
        boltzmann.setdefault(cheap(d.basis),
                             BoltzmannDraws(cheap(d.basis), d.z, (3, 10), 3))
    return replace(
        w, name=w.name + "-smoke", simples=simples,
        checks=tuple(cheap(b) for b in w.checks), max_size=4,
        specs=tuple(dict.fromkeys(cheap(b) for b in w.specs)), depth=10,
        exact=tuple(dict.fromkeys(ExactDraws(cheap(d.basis), 8, 3)
                                  for d in w.exact)),
        boltzmann=tuple(boltzmann.values()))


def stream_seed(seed: int, basis: str, kind: str) -> int:
    """The sampler seed of one draw stream, derived from the run's seed."""
    digest = hashlib.sha256(f"{seed}:{basis}:{kind}".encode()).hexdigest()
    return int(digest[:16], 16)


def perm_lines(basis: str) -> str:
    """The basis file text: one space-separated permutation per line."""
    return "".join(" ".join(lit) + "\n" for lit in BASES[basis])

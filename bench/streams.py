"""Seeded argv streams for the three benchmark workloads.

A stream is an endless sequence of *cycles*.  A cycle is a short list of
``ifslab`` argv lists whose subcommands and sizes are fixed per workload, so
every run that stops on a cycle boundary runs the same job mix; the seed
only picks the parameters (``t``, probes, grids, word pairs).  The same
workload and seed always give the same stream.

Each workload also carries one or two light jobs for the layers it does not
stress, so every layer's self time is measured on every workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import islice
from typing import Iterator

WORKLOADS = ("dim-deep", "pairs-wide", "param-sweep")

# Cycles a run makes even when --seconds runs out first: a cycle has two, three
# and one jobs of the slowest kinds, so 12 or more of them stay above the tail
# percentile (10 jobs beyond it), and job_tail_ms measures those kinds on a slow
# host as on a fast one.
MIN_CYCLES = {"dim-deep": 6, "pairs-wide": 4, "param-sweep": 12}


class Stream:
    """The cycles of one workload at one seed."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.rng = random.Random(f"ifslab-bench:{workload}:{seed}")
        self.seen: set[Fraction] = set()
        self.make_cycle = {
            "dim-deep": self._dim_deep,
            "pairs-wide": self._pairs_wide,
            "param-sweep": self._param_sweep,
        }[workload]

    def cycles(self) -> Iterator[list[list[str]]]:
        while True:
            yield self.make_cycle()

    # -- parameter pickers -------------------------------------------------

    def _t(self, q: int) -> Fraction:
        """A parameter p/q in [1/2, 4] in lowest terms."""
        while True:
            p = self.rng.randint((q + 1) // 2, 4 * q)
            if math.gcd(p, q) == 1:
                return Fraction(p, q)

    def _fresh(self, pick) -> Fraction:
        """A value from ``pick()`` that this stream has never used before."""
        for _ in range(10_000):
            value = pick()
            if value not in self.seen:
                self.seen.add(value)
                return value
        raise RuntimeError(f"{self.workload} stream ran out of fresh parameters")

    def _fresh_t(self) -> Fraction:
        return self._fresh(lambda: self._t(self.rng.randint(2, 200)))

    def _slot_t(self, q: int) -> Fraction:
        """A never-used parameter with the prime denominator ``q`` of its job slot.

        The cost of exact arithmetic depends on the denominator, so fixing it
        per slot lets the seed move only the numerator.  A prime near 50-100
        leaves about 3.5q numerators, so a slot does not run out in a run.
        """
        return self._fresh(lambda: self._t(q))

    def _ratio(self, min_q: int, max_q: int, lo: int, hi: int) -> Fraction:
        """A rational in [lo, hi] with a random denominator in [min_q, max_q]."""
        q = self.rng.randint(min_q, max_q)
        return Fraction(self.rng.randint(lo * q, hi * q), q)

    def _exponent(self) -> str:
        return f"0.{self.rng.randint(30, 90)}"

    # -- workloads ---------------------------------------------------------

    def _dim_deep(self) -> list[list[str]]:
        """Two groups, each exploring one t: level dimensions, subsystem, measure, pressure.

        The four jobs of a group share their t; no two groups of a stream do.
        """
        cycle = []
        for q, deep, shallow, sub, n_measure in ((53, 7, 6, 3, 7), (59, 6, 7, 4, 6)):
            t = str(self._slot_t(q))
            cycle += [
                ["dim", "--t", t, "--levels", f"1,2,4,{deep}"],
                ["dim", "--t", t, "--subsystem", f"full:{sub}", "--levels", "1"],
                ["measure", "--t", t, "--n", str(n_measure), "--s", "auto"],
                ["pressure", "--t", t, "--levels", f"1,2,4,{shallow}", "--s", self._exponent()],
            ]
        cycle.append(["separation", "--t", str(self._slot_t(61)), "--n", "3", "--variant", "sesc"])
        return cycle

    def _probes(self, t: Fraction) -> str:
        """Two distinct probe points in [0, 2t/3]: a job's cost grows with the number of probes."""
        right = 2 * t / 3
        return ",".join(str(right * Fraction(k, 40)) for k in sorted(self.rng.sample(range(41), 2)))

    def _pairs_wide(self) -> list[list[str]]:
        """Shallow trees and quadratic pair loops, each job at a t never used before.

        A cycle has three cheap jobs, three freeness jobs and three level-5
        separation jobs, alike (two probes each).  The median then falls in
        the middle of the freeness jobs, and the tail percentile among the
        separation jobs, however many cycles a run makes.
        """
        ts = [self._slot_t(q) for q in (53, 59, 61, 67, 71, 73, 79, 83, 89)]
        text = [str(t) for t in ts]
        seeds = [str(self.rng.randint(0, 10**6)) for _ in range(3)]
        return [
            ["separation", "--t", text[0], "--n", "5", "--variant", "both", "--probes", self._probes(ts[0])],
            ["separation", "--t", text[1], "--n", "5", "--variant", "both", "--probes", self._probes(ts[1])],
            ["separation", "--t", text[2], "--n", "5", "--variant", "both", "--probes", self._probes(ts[2])],
            ["separation", "--t", text[3], "--n", "4", "--variant", "both", "--probes", self._probes(ts[3])],
            ["freeness", "--t", text[4], "--depth", "6", "--samples", "1000", "--max-len", "20", "--seed", seeds[0]],
            ["freeness", "--t", text[5], "--depth", "5", "--samples", "1000", "--max-len", "20", "--seed", seeds[1]],
            ["lemmas", "--lemma", "all", "--k", "6", "--t", text[6]],
            ["freeness", "--t", text[7], "--depth", "5", "--samples", "1000", "--max-len", "20", "--seed", seeds[2]],
            ["dim", "--t", text[8], "--levels", "1,2,3"],
        ]

    def _grid_value(self) -> Fraction:
        """Log-uniform over [1/4, 256] with a small denominator."""
        q = self.rng.randint(1, 64)
        p = max(1, round(q * 2 ** self.rng.uniform(-2, 8)))
        return Fraction(p, q)

    def _chain_pair(self) -> tuple[str, str]:
        """A consecutive pair (v, w) in the chain order on {1,2}^k."""
        k = self.rng.randint(3, 5)
        while True:
            v = "".join(self.rng.choice("12") for _ in range(k))
            m = 0
            while m < k and v[m] == "2":
                m += 1
            if m < k:
                return v, "1" * m + "2" + v[m + 1:]

    def _param_sweep(self) -> list[list[str]]:
        """Every job at a parameter never used before in the stream."""
        cycle = []
        for n in (5, 4):
            grid = [self._fresh(self._grid_value) for _ in range(self.rng.randint(5, 20))]
            cycle.append(["lemmas", "--lemma", "cert", "--n", str(n), "--grid", ",".join(map(str, grid))])
        for _ in range(2):
            v, w = self._chain_pair()
            t_max = self._fresh(lambda: self._ratio(1, 64, 96, 600))
            resolution = Fraction(1, self.rng.randint(64, 256))
            cycle.append(["lemmas", "--lemma", "3", "--v", v, "--w", w,
                          "--t-max", str(t_max), "--resolution", str(resolution)])
        for _ in range(2):
            k = self.rng.randint(3, 5)
            threshold = Fraction(3) / (1 - Fraction(1, 4**k))
            t = self._fresh(lambda: threshold + Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 10**5), 5 * 10**5))
            cycle.append(["lemmas", "--lemma", "4", "--k", str(k), "--t", str(t)])
        lo = self._fresh(lambda: self._ratio(2, 97, 2, 6))
        search = f"3:{str(lo)}:{str(lo + self.rng.randint(1, 2))}:1/2"
        cycle.append(["attractor", "--t", str(self._fresh_t()), "--levels", "2,3,4",
                      "--subsystem", "tilde:3", "--search-common", search])
        cycle.append(["dim", "--t", str(self._fresh_t()), "--levels", "1,2"])
        cycle.append(["separation", "--t", str(self._fresh_t()), "--n", "2", "--variant", "both"])
        return cycle


def stream_digest(workload: str, seed: int, cycles: int) -> str:
    """SHA-256 of the first ``cycles`` cycles of a stream (for reproducibility checks)."""
    head = list(islice(Stream(workload, seed).cycles(), cycles))
    return hashlib.sha256(json.dumps(head).encode()).hexdigest()

"""The multi-type TASEP on a ring as an exact Markov chain.

States are ring words; a transition picks a particle uniformly at random
and lets it try to jump left (into a vacancy, or swapping with a strictly
larger label).  Everything here is exact: transition matrices hold
sparse Fraction rows, stationary distributions come from the certified
kernel solve of `linalg.kernel_vector` (modular, with exact elimination
as the fallback) and are verified against the defining equations.

The ring dynamics commute with rotation, so stationary solves may be done
on the rotation quotient and lifted; the lift is always re-verified on
the full chain.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import VACANT, RingWord, TypeVector, _estimates, cyclic_canonical
from .linalg import kernel_vector
from .mlq import _claim_labels


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix with sparse rows: rows[i] maps a column to its
    nonzero entry, so a chain costs its transitions, not n^2."""

    rows: tuple[dict[int, Fraction], ...]

    def __post_init__(self):
        rows = tuple({j: Fraction(x) for j, x in r.items() if x} for r in self.rows)
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def is_row_stochastic(self) -> bool:
        n = self.n_rows
        return all(
            sum(r.values()) == 1 and all(x >= 0 and 0 <= j < n for j, x in r.items()) for r in self.rows
        )


def chain_matrix(states, column, step_targets) -> RationalMatrix:
    """Sparse transition matrix with one row per state: the probabilities
    of step_targets(state), (probability, target) pairs, summed by
    column(target)."""
    rows = []
    for s in states:
        row: dict[int, Fraction] = {}
        for p, target in step_targets(s):
            j = column(target)
            row[j] = row.get(j, 0) + p
        rows.append(row)
    return RationalMatrix(tuple(rows))


def enumerate_states(t: TypeVector) -> list[tuple[int, ...]]:
    """All words of the given type, lexicographic (vacancy sorts first)."""
    symbols = [(VACANT, t.N - t.particles)] + [(i + 1, t.m[i]) for i in range(t.n)]
    symbols = [(s, c) for s, c in symbols if c > 0]
    out = []

    def rec(prefix, remaining):
        if len(prefix) == t.N:
            out.append(tuple(prefix))
            return
        for idx, (s, c) in enumerate(remaining):
            if c == 0:
                continue
            remaining[idx] = (s, c - 1)
            prefix.append(s)
            rec(prefix, remaining)
            prefix.pop()
            remaining[idx] = (s, c)

    rec([], sorted(symbols))
    return out


def state_count(t: TypeVector) -> int:
    total = comb(t.N, t.N - t.particles)
    rest = t.particles
    for mi in t.m:
        total *= comb(rest, mi)
        rest -= mi
    return total


def _step_tuple(sites: tuple[int, ...], site: int) -> tuple[int, ...]:
    """Fire the bell at an occupied site; caller guarantees occupancy."""
    N = len(sites)
    left = (site - 1) % N
    mover = sites[site]
    neighbor = sites[left]
    if neighbor == VACANT or neighbor > mover:
        out = list(sites)
        out[left], out[site] = mover, neighbor
        return tuple(out)
    return sites


def tasep_step(w: RingWord, site: int) -> RingWord:
    """The chosen particle tries to jump left (cyclically).

    It moves into a vacancy, swaps with a strictly larger label, and
    otherwise stays put.
    """
    if w[site] == VACANT:
        raise ValueError(f"site {site} is vacant")
    return RingWord(_step_tuple(w.sites, site))


def transition_matrix(t: TypeVector, cap: int = 2000):
    """Sparse transition matrix of the chain, with its state list.

    Each of the K particles is chosen with probability 1/K.  Raises when
    the state space exceeds the cap.
    """
    size = state_count(t)
    if size > cap:
        raise ValueError(f"state space has {size} states, above cap {cap}")
    states = enumerate_states(t)
    index = {s: i for i, s in enumerate(states)}
    return states, chain_matrix(states, index.__getitem__, _particle_steps(t.particles))


def stationary_exact(P: RationalMatrix) -> tuple[Fraction, ...]:
    """Exact stationary distribution of a row-stochastic matrix.

    Solves pi P = pi with sum(pi) = 1 through the certified kernel of
    P^T - I (`linalg.kernel_vector`); the result is verified against P
    before being returned and must be strictly positive.
    """
    if not P.is_row_stochastic():
        raise ValueError("matrix is not row-stochastic")
    n = P.n_rows
    rows = [{} for _ in range(n)]  # row j of P^T - I
    for i, row in enumerate(P.rows):
        for j, x in row.items():
            rows[j][i] = x
    for j, row in enumerate(rows):
        row[j] = row.get(j, 0) - 1
    x = kernel_vector(rows, n)
    total = sum(x)
    if total == 0:
        raise ValueError("degenerate kernel")
    pi = tuple(Fraction(v, total) for v in x)
    if any(p <= 0 for p in pi):
        raise ValueError("stationary vector not strictly positive (chain not irreducible)")
    flow = [Fraction(0)] * n
    for p, row in zip(pi, P.rows):
        for j, x in row.items():
            flow[j] += p * x
    if tuple(flow) != pi:
        raise RuntimeError("stationarity verification failed")
    return pi


def _canon(sites: tuple[int, ...]) -> tuple[int, ...]:
    return cyclic_canonical(RingWord(sites))[0].sites


def _quotient_stationary(reps, step_targets) -> dict[tuple, Fraction]:
    """Solve the chain on rotation classes and lift uniformly to words.

    reps: canonical class representatives; step_targets(rep) yields
    (probability, target word) pairs.  The lifted distribution is exact.
    """
    index = {r: i for i, r in enumerate(reps)}
    pi_q = stationary_exact(chain_matrix(reps, lambda w: index[_canon(w)], step_targets))
    out = {}
    for i, rep in enumerate(reps):
        orbit = {rep[k:] + rep[:k] for k in range(len(rep))}
        share = pi_q[i] / len(orbit)
        for w in orbit:
            out[w] = share
    return out


def _verify_stationary(dist: dict[tuple, Fraction], step_targets):
    flow: dict[tuple, Fraction] = {w: Fraction(0) for w in dist}
    for w, p in dist.items():
        for q, target in step_targets(w):
            flow[target] += p * q
    if flow != dist:
        raise RuntimeError("stationarity verification failed on the full chain")


def _particle_steps(K: int):
    p = Fraction(1, K)

    def targets(w: tuple[int, ...]):
        for site, label in enumerate(w):
            if label != VACANT:
                yield p, _step_tuple(w, site)

    return targets


def tasep_stationary(t: TypeVector) -> dict[tuple[int, ...], Fraction]:
    """Exact stationary distribution of the TASEP, solved on the rotation
    quotient and verified on the full chain."""
    states = enumerate_states(t)
    reps = sorted({_canon(s) for s in states})
    targets = _particle_steps(t.particles)
    dist = _quotient_stationary(reps, targets)
    _verify_stationary(dist, targets)
    return dist


def k_tasep_step(w: RingWord, S) -> RingWord:
    """Fire a TASEP bell at every position of S, deterministically.

    Within a run of cyclically consecutive positions the leftmost bell
    fires first; bells at non-adjacent positions commute, so the result
    does not depend on anything else.  When S is the whole ring no valid
    order exists and the run is cut at position 0 (documented convention).
    """
    sites = tuple(w)
    N = len(sites)
    S = set(S)
    if not S <= set(range(N)):
        raise ValueError("subset out of range")
    for pos in _bell_order(S, N):
        if sites[pos] != VACANT:
            sites = _step_tuple(sites, pos)
    return RingWord(sites)


def _bell_order(S: set, N: int) -> list[int]:
    if len(S) == N:
        return list(range(N))
    order = []
    starts = sorted(p for p in S if (p - 1) % N not in S)
    for start in starts:
        p = start
        while p in S:
            order.append(p)
            p = (p + 1) % N
    return order


def _subset_steps(N: int, k: int):
    total = comb(N, k)
    p = Fraction(1, total)

    def targets(w: tuple[int, ...]):
        for S in itertools.combinations(range(N), k):
            sites = w
            for pos in _bell_order(set(S), N):
                if sites[pos] != VACANT:
                    sites = _step_tuple(sites, pos)
            yield p, sites

    return targets


def k_tasep_stationary(t: TypeVector, k: int) -> dict[tuple[int, ...], Fraction]:
    """Stationary distribution of the k-subset chain.

    For k < N the dynamics commute with rotation and the quotient solver
    applies; k = N breaks rotation covariance (the forced cut), so that
    case is solved on the full state space.
    """
    if not 1 <= k <= t.N:
        raise ValueError(f"need 1 <= k <= {t.N}")
    states = enumerate_states(t)
    targets = _subset_steps(t.N, k)
    if k < t.N:
        reps = sorted({_canon(s) for s in states})
        dist = _quotient_stationary(reps, targets)
    else:
        index = {s: i for i, s in enumerate(states)}
        dist = dict(zip(states, stationary_exact(chain_matrix(states, index.__getitem__, targets))))
    _verify_stationary(dist, targets)
    return dist


def push_through_last_row(dist: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Apply the process of the last row to a distribution on words.

    A uniformly random set of as many boxes as there are particles is
    drawn, the word's labels claim them, and the relabelled word is the
    new state.  Used to check that the stationary distribution is fixed.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for w, prob in dist.items():
        N = len(w)
        sources = sorted((label, pos) for pos, label in enumerate(w) if label != VACANT)
        K = len(sources)
        share = prob / comb(N, K)
        for boxes in itertools.combinations(range(N), K):
            labels, _, _ = _claim_labels(sources, boxes, 0)
            sites = [VACANT] * N
            for pos, label in zip(boxes, labels):
                sites[pos] = label
            key = tuple(sites)
            out[key] = out.get(key, Fraction(0)) + share
    return out


def mc_stationary(t: TypeVector, burn_in: int, samples: int, seed: int, thin: int = 1):
    """Monte Carlo estimate of the stationary distribution.

    Runs a single chain, records every `thin`-th state after burn-in, and
    reports per-state frequencies with naive binomial standard errors.
    Reproducible for a fixed (seed, thin).  The word and its sorted
    occupied sites are updated in place; a step moves occupied[randrange(K)].
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    randrange = random.Random(seed).randrange
    sites = list(enumerate_states(t)[0])
    occupied = [i for i, x in enumerate(sites) if x != VACANT]
    K, last = t.particles, t.N - 1

    def advance(steps):
        for _ in range(steps):
            k = randrange(K)
            site = occupied[k]
            mover, neighbor = sites[site], sites[site - 1]  # sites[-1] is left of site 0
            if neighbor == VACANT or neighbor > mover:
                sites[site - 1], sites[site] = mover, neighbor
                if neighbor == VACANT and site:
                    occupied[k] = site - 1
                elif neighbor == VACANT:  # from site 0 (k == 0) to the last site
                    del occupied[0]
                    occupied.append(last)

    advance(burn_in)
    counts: dict[tuple, int] = {}
    for _ in range(samples):
        advance(thin)
        state = tuple(sites)
        counts[state] = counts.get(state, 0) + 1
    return _estimates(counts, samples, "freq")

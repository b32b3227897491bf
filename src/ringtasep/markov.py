"""The multi-type TASEP on a ring as an exact Markov chain.

States are ring words; a transition picks a particle uniformly at random
and lets it try to jump left (into a vacancy, or swapping with a strictly
larger label).  Everything here is exact.

Every chain here picks one of D equally likely moves, and D is the same
from every state: one of K particles, or one of C(N, k) subsets of
sites.  A chain is passed around as its move lists on positions: succ[i]
holds the position of the target of each move from state i.  `_moves`
reads them from a step function once per state, checks D, and is the one
place that refuses a move out of the states; the particle chain's steps
build words.  A k-subset chain builds none: `_subset_moves` walks a
generator table (row g, entry i: the position of state i after
generator g) in each subset's `_bell_order`.  The TASEP bells give one
such table per state list (`_bell_table`, read through `_moves`), and
the e_i of `rs` another, so the ring and the pattern chain share one
walker.  A chain is held as its move counts C, the targets counted per
column in integers, with P = C / D; the chain layer stays in integers
from the step functions to the certificate.  A stationary vector y comes
from the sparse integer elimination of `linalg.kernel_vector` and is
certified by the integer flow equations y C = D y; Fractions are formed
only for the returned distribution.  A chain that is not irreducible is
refused by that elimination: its number of free columns is the kernel
dimension, which is the number of closed communicating classes (Norris,
Markov Chains, 1997, section 1.7), and with one closed class the kernel
vector is zero on every transient state.

The TASEP needs no solve.  Ferrari and Martin, "Stationary distributions
of multi-type totally asymmetric exclusion processes" (Ann. Probab. 35,
2007), treat n-type TASEPs "on Z and on the cycle Z_N" and "show that
the construction can be extended to give stationary measures for an
n-TASEP": on the ring, the bottom row of a uniformly random multiline
queue is stationary.  So the queue census `count.bottom_word_counts` is
the stationary vector up to the total queue count.  `tasep_stationary`,
and `k_tasep_stationary` for k < N, take that census and certify it on
the full chain in integers; no elimination runs.

Every other stationary distribution of the package, here and in `rs`,
comes from one solver, `_certified_stationary`, which takes the states,
their move lists and a rotation table on the same positions.  It solves
the chain on classes, the orbits of a rotation that commutes with the
chain or else single states, lifts each class's probability evenly over
its orbit to integer weights, and certifies them on the full chain, by
the flow equations and by strong connectivity of the chain graph, read
by one forward pass (`_certify_weights`), so they are the chain's unique
stationary distribution.  `verify` keeps the solve for the TASEP too,
so its Ferrari-Martin checks compare two independent routes.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .core import VACANT, RingWord, TypeVector, _estimates, _multiset_perms
from .count import bottom_word_counts, total_mlq_count
from .linalg import kernel_vector
from .mlq import _row_successors, transfer

STATE_CAP = 2000  # the most states `transition_matrix` enumerates, and `mc_stationary` walks as move lists


@dataclass(frozen=True)
class CountMatrix:
    """Transition counts of a chain whose every state has D equally likely
    moves: rows[i] maps a column to the number of moves from state i that
    land there, so the transition matrix is P = C / D.  Rows are sparse, so
    a chain costs its transitions, not n^2."""

    rows: tuple[dict[int, int], ...]
    D: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _is_stochastic(C: tuple[dict[int, int], ...], D: int) -> bool:
    """Every row holds positive counts, in range, that sum to D > 0; a
    stored zero would read as an edge of the chain graph."""
    n = len(C)
    return D > 0 and all(sum(r.values()) == D and all(c > 0 and 0 <= j < n for j, c in r.items()) for r in C)


def _moves(states, step_targets) -> list[list[int]]:
    """Every state's move targets as positions in states, reading each state
    once: step_targets(state) yields the targets of its equally likely moves,
    each one of the states, and every state must yield the same number D."""
    index = {s: i for i, s in enumerate(states)}
    succ = []
    for s in states:
        targets = list(step_targets(s))
        try:
            out = [index[v] for v in targets]
        except KeyError as e:
            raise RuntimeError(f"a move from {s} leaves the states, to {e.args[0]}") from None
        if succ and len(out) != len(succ[0]):
            raise ValueError(f"state {s} has {len(out)} moves, another has {len(succ[0])}")
        succ.append(out)
    return succ


def chain_matrix(succ) -> CountMatrix:
    """Move counts with one row per state: the move lists succ, as `_moves`
    or `_subset_moves` give them, counted in integers by column."""
    return CountMatrix(tuple(map(Counter, succ)), len(succ[0]) if succ else 0)


def _content(t: TypeVector) -> list[int]:
    """The letters of a word of the given type in increasing order: the
    vacancies, then the labels."""
    return [VACANT] * (t.N - t.particles) + [i + 1 for i in range(t.n) for _ in range(t.m[i])]


def enumerate_states(t: TypeVector) -> list[tuple[int, ...]]:
    """All words of the given type, lexicographic (vacancy sorts first)."""
    return list(_multiset_perms(_content(t)))


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


def transition_matrix(t: TypeVector):
    """Sparse move counts of the chain, with its state list.

    Each of the K particles is chosen with probability 1/K: the matrix
    holds the move counts with D = K (a `CountMatrix`).  Raises when the
    state space exceeds `STATE_CAP`, before any state is enumerated.
    """
    size = state_count(t)
    if size > STATE_CAP:
        raise ValueError(f"state space has {size} states, above cap {STATE_CAP}")
    states = enumerate_states(t)
    return states, chain_matrix(_moves(states, _particle_steps))


def stationary_exact(P: CountMatrix) -> tuple[Fraction, ...]:
    """Exact stationary distribution of a chain given by its move counts.

    P holds the integer counts C of every state's D equally likely moves,
    so the transition matrix is C / D.  y solves y C = D y through the
    kernel of C^T - D I, found by exact sparse elimination
    (`linalg.kernel_vector`).  Its stationary distributions are spanned by
    one per closed communicating class (Norris, Markov Chains, 1997,
    section 1.7), so a chain with other than one closed class is refused
    by the elimination, with that count of free columns as the kernel
    dimension, and a chain whose one closed class leaves transient states
    has a kernel vector that is zero there, refused as not strictly
    positive.  Before the Fractions y_i / sum(y) are formed, y must be
    strictly positive and y C = D y must hold in integers: that check is
    the solve's certificate.
    """
    C, D = P.rows, P.D
    if not _is_stochastic(C, D):
        raise ValueError("matrix is not row-stochastic")
    n = len(C)
    rows = [{} for _ in range(n)]  # row j of C^T - D I
    for i, row in enumerate(C):
        for j, c in row.items():
            rows[j][i] = c
    for j, row in enumerate(rows):
        row[j] = row.get(j, 0) - D
    y = kernel_vector(rows, n)
    total = sum(y)
    if total == 0:
        raise ValueError("degenerate kernel")
    if total < 0:
        y, total = [-v for v in y], -total
    if any(v <= 0 for v in y):
        raise ValueError("stationary vector not strictly positive (chain not irreducible)")
    # y C = D y, read off row by row from C^T - D I
    if any(sum(c * y[i] for i, c in row.items()) for row in rows):
        raise RuntimeError("stationarity verification failed")
    return tuple(Fraction(v, total) for v in y)


def _classes(rot) -> list[int]:
    """Each position's class representative under the rotation table rot,
    where rot[i] is the position of state i turned: the rotation orbits,
    each represented by its first member."""
    first = [-1] * len(rot)
    for i in range(len(first)):
        j = i
        while first[j] < 0:
            first[j] = i
            j = rot[j]
    return first


def _certified_stationary(states, succ, rot=None) -> dict:
    """The chain's unique stationary distribution, in states order, certified
    on the full chain.  states is any sequence of distinct states, succ their
    move lists on positions (`_moves`, `_subset_moves`), and rot, when given,
    a rotation table on the same positions that commutes with the chain.

    The classes are the orbits of `_classes(rot)`, or single states without
    rot.  The quotient chain, each target counted by its class, is counted
    from the representatives' moves and solved by `stationary_exact`.  Each
    class's probability p_c is shared evenly over its orbit as the integer
    weight p_c L / size_c, with L one lcm, and `_certified` certifies the
    weights on the full chain.  A rot that does not commute with the chain
    is refused, by the solve or by the certificate.
    """
    first = range(len(succ)) if rot is None else _classes(rot)
    column = {r: c for c, r in enumerate(dict.fromkeys(first))}  # each representative's class
    cls = [column[r] for r in first]
    Q = chain_matrix([[cls[j] for j in succ[r]] for r in column])
    size = Counter(cls)
    share = [p / size[c] for c, p in enumerate(stationary_exact(Q))]
    L = lcm(*(q.denominator for q in share))
    weight = [q.numerator * (L // q.denominator) for q in share]
    return _certified(states, succ, [weight[c] for c in cls])


def _certify_weights(succ, weights):
    """Certify integer weights as the unique stationary vector, up to
    scale, of the chain whose state i moves to the positions succ[i].

    sum_w weight_w #(w -> v) = D weight_v must hold for every state v, with
    D the number of moves from each state.  The chain graph must be
    strongly connected, which is certified by reachability: every weight
    must be positive (the callers' weights have a positive sum), and one
    forward pass from state 0 must reach every state.  Balanced positive
    weights scale to a stationary distribution with no zero entry, and a
    stationary distribution puts no mass on transient states (Norris,
    Markov Chains, 1997, section 1.7), so every communicating class is
    closed and the class of state 0 holds every state it reaches: all of
    them.  Conversely, on a strongly connected chain every balanced vector
    is a multiple of the positive stationary vector, so a weight <= 0
    beside a positive sum shows the chain is not strongly connected.  A
    strongly connected chain has exactly one stationary distribution, so
    the weights are it.
    """
    D = len(succ[0])
    flow = [0] * len(succ)
    for out, c in zip(succ, weights):
        for j in out:
            flow[j] += c
    if any(f != D * c for f, c in zip(flow, weights)):
        raise RuntimeError("stationarity verification failed on the full chain")
    seen = [False] * len(succ)
    seen[0] = True
    todo = [0]
    while todo:
        for j in succ[todo.pop()]:
            if not seen[j]:
                seen[j] = True
                todo.append(j)
    if min(weights) <= 0 or not all(seen):
        raise ValueError("chain is not strongly connected")


def _certified(states, succ, weights) -> dict:
    """weight / sum(weights) on states, once `_certify_weights` certifies the
    weights on the chain of succ; one Fraction per distinct weight."""
    _certify_weights(succ, weights)
    total = sum(weights)
    prob = {c: Fraction(c, total) for c in set(weights)}
    return {s: prob[c] for s, c in zip(states, weights)}


def _integer_census(t: TypeVector):
    """The queue census of type t as its sorted words and their integer
    queue counts, (states, weights), checked to hold state_count(t) words,
    the least of them the sorted letters of t, summing to the total queue
    count Z.  The words are sorted, which with VACANT = 0 is
    `enumerate_states` order."""
    states, weights = zip(*sorted(bottom_word_counts(t).items()))
    Z = total_mlq_count(t)
    if len(states) != state_count(t) or sorted(states[0]) != _content(t) or sum(weights) != Z:
        raise RuntimeError(f"census of {t} is not a count of its {state_count(t)} words summing to {Z}")
    return states, weights


def _certified_census(t: TypeVector, moves) -> dict[tuple[int, ...], Fraction]:
    """The queue census of type t (`_integer_census`) as the stationary
    distribution of a chain on words of type t, certified on the full
    chain by `_certified`.  moves(states) gives the move lists of the
    sorted census words, on positions in states, as `_moves` or
    `_subset_moves` give them.  Moves keep the letters, so a certified
    census is a closed class of every word of type t, hence all of them.
    """
    states, weights = _integer_census(t)
    return _certified(states, moves(states), weights)


def _particle_steps(w: tuple[int, ...]):
    """Targets of the K equally likely moves from a word with K particles:
    each particle in turn tries its jump."""
    for site, label in enumerate(w):
        if label != VACANT:
            yield _step_tuple(w, site)


def tasep_stationary(t: TypeVector) -> dict[tuple[int, ...], Fraction]:
    """Exact stationary distribution of the TASEP, in `enumerate_states`
    order: the queue census certified on the full chain, no solve.

    Ferrari and Martin (Ann. Probab. 35, 2007) "show that the
    construction can be extended to give stationary measures for an
    n-TASEP": the bottom row of a uniformly random multiline queue is
    stationary, so each word's probability is its number of queues over
    the total.  The certificate of `_certified_census` proves it for this
    t; a wrong census is refused, never answered.
    """
    return _certified_census(t, lambda states: _moves(states, _particle_steps))


def _rotate(w: tuple[int, ...]) -> tuple[int, ...]:
    """The word turned by one site: site i + 1 moves to site i."""
    return w[1:] + w[:1]


def _tasep_solve(t: TypeVector) -> dict[tuple[int, ...], Fraction]:
    """The TASEP's stationary distribution solved on the rotation quotient
    and certified on the full chain, with no use of the queue census, so
    `verify` can compare it with `tasep_stationary`."""
    states = enumerate_states(t)
    [rot] = zip(*_moves(states, lambda w: [_rotate(w)]))
    return _certified_stationary(states, _moves(states, _particle_steps), rot)


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
    return RingWord(_fire(sites, _bell_order(S, N)))


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


def _fire(sites: tuple[int, ...], order) -> tuple[int, ...]:
    """Fire the bells at the positions of order in turn; vacant ones do nothing."""
    for pos in order:
        if sites[pos] != VACANT:
            sites = _step_tuple(sites, pos)
    return sites


def _bell_table(states) -> list[tuple[int, ...]]:
    """The TASEP bells as a generator table on positions in states, distinct
    words of one length N: row s, entry i is the position of states[i]
    after the bell at site s rings, i itself when the site is vacant or the
    jump is blocked.  The rows are read through `_moves`, which refuses a
    bell that rings a word out of the states."""
    sites = range(len(states[0]))
    return list(zip(*_moves(states, lambda w: [_fire(w, (s,)) for s in sites])))


def _subset_moves(table, k: int) -> list[list[int]]:
    """Every state's move list in the k-subset chain of a generator table,
    whose row g, entry i is the position of state i after generator g: each
    of the C(m, k) k-subsets of the m rows fires its generators in
    `_bell_order`, composed on positions, so a move builds no state.  The
    TASEP bells (`_bell_table`) and the e_i of `rs` are such tables."""
    m = len(table)
    walks = [[table[g] for g in _bell_order(set(S), m)] for S in itertools.combinations(range(m), k)]
    succ = []
    for i in range(len(table[0])):
        out = []
        for walk in walks:
            j = i
            for row in walk:
                j = row[j]
            out.append(j)
        succ.append(out)
    return succ


def k_tasep_stationary(t: TypeVector, k: int) -> dict[tuple[int, ...], Fraction]:
    """Stationary distribution of the k-subset chain.

    For k < N the k-subset chain shares the TASEP's stationary
    distribution, the Ferrari-Martin queue census (see `tasep_stationary`),
    so that census is certified on the k-subset chain, with no solve.
    k = N breaks rotation covariance (the forced cut), so that case is
    solved on the full state space, where the elimination of
    `stationary_exact` refuses it unless it is irreducible.
    Both walk the `_bell_table` of the states through `_subset_moves`.
    """
    if not 1 <= k <= t.N:
        raise ValueError(f"need 1 <= k <= {t.N}")

    def moves(states):
        return _subset_moves(_bell_table(states), k)

    if k < t.N:
        return _certified_census(t, moves)
    states = enumerate_states(t)
    return _certified_stationary(states, moves(states))


def push_through_last_row(dist: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Apply the process of the last row to a distribution on words.

    A uniformly random set of as many boxes as there are particles is
    drawn, the word's labels claim them, and the relabelled word is the
    new state.  Used to check that the stationary distribution is fixed.
    The whole distribution takes one row step, mlq.transfer over
    mlq._row_successors, so its words must share their length N and
    particle count K; the probabilities reaching a new word over the
    C(N, K) box sets are summed, then divided by C(N, K) as a Fraction.
    """
    if not dist:
        return {}
    shapes = {(len(w), sum(s != VACANT for s in w)) for w in dist}
    if len(shapes) > 1:
        raise ValueError(f"words differ in length or particle count: {sorted(shapes)}")
    [(N, K)] = shapes
    states = {}
    for w, prob in dist.items():
        u = RingWord(w)
        u.type_vector()  # refuses an empty word or a missing class
        states[u.sites] = prob
    words = transfer(states, _row_successors(N, K, VACANT))  # K labels claim all K boxes
    return {w: Fraction(prob, comb(N, K)) for w, prob in words.items()}


def mc_stationary(t: TypeVector, burn_in: int, samples: int, seed: int, thin: int = 1):
    """Monte Carlo estimate of the stationary distribution.

    Runs a single chain from the first word of `enumerate_states(t)`,
    records every `thin`-th state after burn-in, and reports per-state
    frequencies with naive binomial standard errors.  Reproducible for a
    fixed (seed, thin).  A step fires the k-th occupied site in ascending
    order, for a k drawn as random.Random.randrange(K) draws it:
    getrandbits of K's bit length, drawn again until below K.  Burn-in and
    sampling run as one loop, with a countdown to the next recorded state;
    with thin = 0 every record is the state after burn-in.

    Up to `STATE_CAP` states the chain walks the move lists of
    `_moves(enumerate_states(t), _particle_steps)`, the lists the exact
    certificate reads, whose move k fires the k-th occupied site: a step
    is one list lookup.  Above the cap, where the lists would take every
    state, the word and its sorted occupied sites are updated in place.
    Both paths take the same steps, so the estimates do not depend on the
    cap.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if burn_in < 0 or thin < 0:
        raise ValueError("need burn_in >= 0 and thin >= 0")
    getrandbits = random.Random(seed).getrandbits
    K = t.particles
    bits = K.bit_length()
    wait = burn_in + thin  # steps to the next recorded state
    if state_count(t) <= STATE_CAP:
        states = enumerate_states(t)
        succ = _moves(states, _particle_steps)
        hits = [0] * len(states)
        s = 0
        for _ in range(burn_in + samples * thin):
            k = getrandbits(bits)
            while k >= K:
                k = getrandbits(bits)
            s = succ[s][k]
            wait -= 1
            if not wait:
                hits[s] += 1
                wait = thin
        if not thin:
            hits[s] = samples
        return _estimates({w: c for w, c in zip(states, hits) if c}, samples, "freq")
    sites = _content(t)
    occupied = [i for i, x in enumerate(sites) if x != VACANT]
    last = t.N - 1
    counts: dict[tuple, int] = {}
    for _ in range(burn_in + samples * thin):
        k = getrandbits(bits)
        while k >= K:
            k = getrandbits(bits)
        site = occupied[k]
        mover, neighbor = sites[site], sites[site - 1]  # sites[-1] is left of site 0
        if neighbor == VACANT or neighbor > mover:
            sites[site - 1], sites[site] = mover, neighbor
            if neighbor == VACANT and site:
                occupied[k] = site - 1
            elif neighbor == VACANT:  # from site 0 (k == 0) to the last site
                del occupied[0]
                occupied.append(last)
        wait -= 1
        if not wait:
            state = tuple(sites)
            counts[state] = counts.get(state, 0) + 1
            wait = thin
    if not thin:
        counts = {tuple(sites): samples}
    return _estimates(counts, samples, "freq")

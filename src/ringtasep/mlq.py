"""Multiline queues: discrete and continuous, with the Ferrari-Martin
labelling procedure, bully paths, and the one-row update of the bottom
word ("process of the last row").

A discrete multiline queue of type m = (m1, ..., mn) on N columns has
rows 1..n, with row i holding m1+...+mi boxes at distinct positions in
{0..N-1}.  Labelling proceeds row by row: every labelled box claims the
first unclaimed box weakly to its cyclic right in the next row, boxes
with smaller labels claiming first; boxes of row i+1 left unclaimed get
the new label i+1.

A continuous multiline queue keeps only the relative cyclic order of its
box positions (an Arrangement); the labelling depends on nothing else.

Every claim, exact or Monte Carlo, follows one rule: each label pops,
from the boxes of the row not yet claimed, the first at or after it, or
the first of all past the end of the ring.  Two exact steps run it.
_claim_labels pops target indices and reports the claims: _claim_rows
runs it row by row on a queue's rows, for label_mlq (and so
label_arrangement) and for sweeps that keep few queues, which stop at
the first wrap before building any queue object; the row insertion of
continuum._census once per (labelled row, spread of the next row over
its gaps), and last_row_step once per word.  _row_successors, the
discrete row step, pops box positions on labelled words, as words, with
no claim record: count._class_states takes it for each row of a queue (on
rotation classes) and markov.push_through_last_row for a whole
distribution of words.  The sampler of continuum.py pops float
positions.  Every census merges through the one driver transfer: the
two above, the continuum census, and the tableau oracle
tableaux.ssyt_count_brute.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .core import VACANT, RingWord, TypeVector


def _claim_labels(sources, targets, fill):
    """One labelling step.

    sources: (label, position) pairs sorted by (label, position);
    targets: sorted positions of the next row.  Returns (labels, claims,
    wrapped) where labels[k] is the label of targets[k], claims[j] is the
    target index claimed by sources[j], and wrapped[j] says whether that
    claim passed the end of the ring.

    free lists the target indices not yet claimed, in order.  A source at
    pos claims the first of them at or after bisect_left(targets, pos),
    or free[0] when there is none (the claim wraps), and pops it.
    """
    free = list(range(len(targets)))
    labels = [fill] * len(targets)
    claims = []
    wrapped = []
    for label, pos in sources:
        if not free:
            raise ValueError("not enough boxes to absorb all labels")
        j = bisect_left(free, bisect_left(targets, pos))
        wrap = j == len(free)
        k = free.pop(0 if wrap else j)
        labels[k] = label
        claims.append(k)
        wrapped.append(wrap)
    return labels, claims, wrapped


def transfer(states: dict, successors) -> dict:
    """One step of a transfer census.

    states maps each state to its multiplicity, the number of prefixes
    (or their total weight) that reach it.  Each multiplicity passes to
    every successor that successors(state) yields, once per yield, and
    equal successors are merged by adding.

    Merging is exact whenever a state alone fixes its future: the
    successors of a state, and so everything counted after it, do not
    depend on the prefix that reached it, so prefixes that end in equal
    states have equal futures and may be counted once, with the sum of
    their counts.  Each census here steps a state of that kind: a
    labelled row, which with the next row's boxes fixes the next labelled
    row (the process of the last row); a cycle of labels and older-box
    counts in the continuum census; a tableau row, which alone bounds the
    row below it.
    """
    out: dict = {}
    for state, mult in states.items():
        for nxt in successors(state):
            out[nxt] = out.get(nxt, 0) + mult
    return out


@cache
def _box_sets(N: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Every set of `size` boxes on N sites, increasing, in the order of
    itertools.combinations."""
    return tuple(combinations(range(N), size))


def _row_successors(N: int, size: int, fill: int):
    """The discrete row step for transfer, on labelled words: a word of N
    sites (VACANT where no box is) goes to the labelled row of every box
    set of `_box_sets(N, size)`, once per set and in that order, as a
    word; the boxes left unclaimed take label fill.

    The word's sources are sorted once.  Each label then claims straight
    on free, the positions of the boxes not yet claimed: the first at or
    after its site, found by one bisect_left, or free[0] when none is.
    That is the claim of _claim_labels, which tests hold it to."""
    box_sets = _box_sets(N, size)

    def successors(word):
        sources = sorted((label, pos) for pos, label in enumerate(word) if label != VACANT)
        if len(sources) > size:
            raise ValueError("not enough boxes to absorb all labels")
        for boxes in box_sets:
            free = list(boxes)
            row = [VACANT] * N
            for label, pos in sources:
                row[free.pop(bisect_left(free, pos) % len(free))] = label
            for pos in free:
                row[pos] = fill
            yield tuple(row)

    return successors


@dataclass(frozen=True)
class DiscreteMLQ:
    t: TypeVector
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        M = self.t.M
        if len(self.rows) != self.t.n:
            raise ValueError(f"expected {self.t.n} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if len(row) != M[i]:
                raise ValueError(f"row {i + 1} must hold {M[i]} boxes, got {len(row)}")
            if list(row) != sorted(set(row)):
                raise ValueError(f"row {i + 1} positions must strictly increase")
            if row and not (0 <= row[0] and row[-1] < self.t.N):
                raise ValueError(f"row {i + 1} positions out of range 0..{self.t.N - 1}")

    def to_json_dict(self) -> dict:
        return {"N": self.t.N, "m": list(self.t.m), "rows": [list(r) for r in self.rows]}


@dataclass(frozen=True)
class LabeledMLQ:
    base: DiscreteMLQ
    labels: tuple[tuple[int, ...], ...]
    # (class, cells) per bully path; cells are (row, position), rows 0-based.
    paths: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = field(default=())
    wrapped: bool = False

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["labels"] = [list(r) for r in self.labels]
        d["paths"] = [[label, [list(c) for c in cells]] for label, cells in self.paths]
        return d


def _claim_rows(rows):
    """The claim steps of the labelling procedure on queue rows (tuples of
    increasing box positions), one per row below the first: for rows[r]
    it yields the sources, the (label, position) pairs of rows[r - 1]
    sorted, and the labels, claims and wrap flags that _claim_labels
    gives rows[r].  Lazy, so a sweep may stop at its first wrap without
    labelling the rows below it."""
    cur = [(1, p) for p in rows[0]]
    for r in range(1, len(rows)):
        labels, claims, wrapped = _claim_labels(cur, rows[r], r + 1)
        yield cur, labels, claims, wrapped
        cur = sorted(zip(labels, rows[r]))


def label_mlq(q: DiscreteMLQ) -> LabeledMLQ:
    """Run the labelling procedure and record bully paths.

    Boxes with equal labels in a row are processed left to right; any
    admissible order gives the same labelling, so this only pins down
    which of two merging paths turns downward.
    """
    rows = q.rows
    n = len(rows)
    all_labels = [tuple([1] * len(rows[0]))]
    claim_maps = []  # per transition: source index -> target index
    any_wrap = False
    for r, (cur, labels, claims, wraps) in enumerate(_claim_rows(rows), 1):
        any_wrap = any_wrap or any(wraps)
        # claims is aligned with cur (label-sorted); re-key by box index.
        cmap = {}
        for j, (label, pos) in enumerate(cur):
            src_idx = bisect_left(rows[r - 1], pos)
            cmap[src_idx] = claims[j]
        claim_maps.append(cmap)
        all_labels.append(tuple(labels))

    paths = []
    for r in range(n):
        for idx, label in enumerate(all_labels[r]):
            if label != r + 1:
                continue  # not an origin; the label arrived from above
            cells = [(r, rows[r][idx])]
            row, k = r, idx
            while row < n - 1:
                k = claim_maps[row][k]
                row += 1
                cells.append((row, rows[row][k]))
            paths.append((label, tuple(cells)))
    paths.sort(key=lambda p: (p[0], p[1][0]))
    return LabeledMLQ(q, tuple(all_labels), tuple(paths), any_wrap)


def _word(N: int, positions, labels) -> tuple[int, ...]:
    """The sites of a ring of N sites holding labels at positions, the
    others vacant."""
    sites = [VACANT] * N
    for pos, label in zip(positions, labels):
        sites[pos] = label
    return tuple(sites)


def bottom_word(l: LabeledMLQ) -> RingWord:
    """Bottom-row labels as a ring word (other sites vacant)."""
    return RingWord(_word(l.base.t.N, l.base.rows[-1], l.labels[-1]))


@dataclass(frozen=True)
class Arrangement:
    """Relative cyclic order of the boxes of a continuous multiline queue.

    order[k] is the row of the k-th box counterclockwise from the origin
    cut.  Row i must appear m1+...+mi times; the type is inferred.  Only
    this order matters for the labelling, which makes every computation
    on continuous queues exact.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        counts: dict[int, int] = {}
        for r in self.order:
            counts[r] = counts.get(r, 0) + 1
        n = max(counts, default=0)
        if n < 1 or set(counts) != set(range(1, n + 1)):
            raise ValueError("rows must be 1..n, each present")
        M = [counts[i] for i in range(1, n + 1)]
        if any(M[i] <= M[i - 1] for i in range(1, n)):
            raise ValueError("row box counts must strictly increase")

    @property
    def n(self) -> int:
        return max(self.order)

    @property
    def B(self) -> int:
        return len(self.order)

    def type_vector(self) -> TypeVector:
        counts = [self.order.count(i) for i in range(1, self.n + 1)]
        m = [counts[0]] + [counts[i] - counts[i - 1] for i in range(1, self.n)]
        return TypeVector(tuple(m), self.B)

    def rotate(self, k: int) -> "Arrangement":
        k %= self.B
        return Arrangement(self.order[k:] + self.order[:k])


def materialize(a: Arrangement) -> DiscreteMLQ:
    """Realize an arrangement as a discrete queue on B equally spaced slots."""
    rows = [[] for _ in range(a.n)]
    for pos, r in enumerate(a.order):
        rows[r - 1].append(pos)
    return DiscreteMLQ(a.type_vector(), tuple(tuple(r) for r in rows))


def label_arrangement(a: Arrangement) -> tuple[int, ...]:
    """Bottom-row labels of a continuous queue, read from the origin cut.

    For the disjoint-classes type (1,...,1) the result is a permutation.
    Ties among positions have measure zero and never occur here.
    """
    return tuple(label_mlq(materialize(a)).labels[-1])


def last_row_step(u: RingWord, boxes) -> RingWord:
    """One step of the process of the last row.

    The labelled word u acts as the row above; boxes are the positions of
    the new row.  Labels of u claim boxes by the usual procedure, and any
    leftover boxes get the next class n+1 (none when the counts match).
    """
    boxes = tuple(sorted(boxes))
    N = len(u)
    if boxes and not (0 <= boxes[0] and boxes[-1] < N):
        raise ValueError("box positions out of range")
    if len(set(boxes)) != len(boxes):
        raise ValueError("box positions must be distinct")
    t = u.type_vector()
    sources = sorted((label, pos) for pos, label in u.particles())
    if len(boxes) < len(sources):
        raise ValueError("too few boxes to absorb all labels")
    labels, _, _ = _claim_labels(sources, boxes, t.n + 1)
    return RingWord(_word(N, boxes, labels))

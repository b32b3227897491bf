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
"""

import json
from bisect import bisect_left
from dataclasses import dataclass, field

from .core import VACANT, RingWord, TypeVector


def _claim_labels(sources, targets, fill):
    """One labelling step.

    sources: (label, position) pairs sorted by (label, position);
    targets: sorted positions of the next row.  Returns (labels, claims,
    wrapped) where labels[k] is the label of targets[k], claims[j] is the
    target index claimed by sources[j], and wrapped[j] says whether that
    claim passed the end of the ring.
    """
    B = len(targets)
    labels = [0] * B
    claims = []
    wrapped = []
    for label, pos in sources:
        start = bisect_left(targets, pos)
        chosen = -1
        wrap = False
        for k in range(start, B):
            if labels[k] == 0:
                chosen = k
                break
        else:
            wrap = True
            for k in range(start):
                if labels[k] == 0:
                    chosen = k
                    break
        if chosen < 0:
            raise ValueError("not enough boxes to absorb all labels")
        labels[chosen] = label
        claims.append(chosen)
        wrapped.append(wrap)
    for k in range(B):
        if labels[k] == 0:
            labels[k] = fill
    return labels, claims, wrapped


def _bottom_labels_fast(rows, n):
    """Labels of the last of the n rows, for label_arrangement and the
    density sweep (the Monte Carlo samplers label their rows as they draw
    them, in continuum._mc_word_chunk).

    rows are sorted sequences of mutually comparable positions (ints or
    floats).  An inlined _claim_labels loop; the test suite cross-checks
    it against label_mlq on random inputs.
    """
    cur_labels = [1] * len(rows[0])
    cur_pos = rows[0]
    for r in range(1, n):
        tgt = rows[r]
        B = len(tgt)
        labels = [0] * B
        # stable sort by label keeps position order within equal labels
        for k in sorted(range(len(cur_pos)), key=cur_labels.__getitem__):
            p = cur_pos[k]
            i = bisect_left(tgt, p)
            while i < B and labels[i]:
                i += 1
            if i == B:
                i = 0
                while labels[i]:
                    i += 1
            labels[i] = cur_labels[k]
        fill = r + 1
        for i in range(B):
            if not labels[i]:
                labels[i] = fill
        cur_labels, cur_pos = labels, tgt
    return cur_labels


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

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscreteMLQ":
        return cls(TypeVector(tuple(d["m"]), d["N"]), tuple(tuple(r) for r in d["rows"]))


@dataclass(frozen=True)
class LabeledMLQ:
    base: DiscreteMLQ
    labels: tuple[tuple[int, ...], ...]
    # (class, cells) per bully path; cells are (row, position), rows 0-based.
    paths: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = field(default=())
    wrapped: bool = False

    def row_labels(self, i: int) -> tuple[int, ...]:
        return self.labels[i]

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["labels"] = [list(r) for r in self.labels]
        d["paths"] = [[label, [list(c) for c in cells]] for label, cells in self.paths]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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
    cur = [(1, p) for p in rows[0]]
    for r in range(1, n):
        labels, claims, wraps = _claim_labels(cur, rows[r], r + 1)
        any_wrap = any_wrap or any(wraps)
        # claims is aligned with cur (label-sorted); re-key by box index.
        cmap = {}
        for j, (label, pos) in enumerate(cur):
            src_idx = bisect_left(rows[r - 1], pos)
            cmap[src_idx] = claims[j]
        claim_maps.append(cmap)
        all_labels.append(tuple(labels))
        cur = sorted(zip(labels, rows[r]))

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


def bottom_word(l: LabeledMLQ) -> RingWord:
    """Bottom-row labels as a ring word (other sites vacant)."""
    sites = [VACANT] * l.base.t.N
    for pos, label in zip(l.base.rows[-1], l.labels[-1]):
        sites[pos] = label
    return RingWord(tuple(sites))


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
    rows = [[] for _ in range(a.n)]
    for pos, r in enumerate(a.order):
        rows[r - 1].append(pos)
    return tuple(_bottom_labels_fast(rows, a.n))


def sample_arrangement(n: int, rng) -> Arrangement:
    """Uniform arrangement of the standard content {1x1, 2x2, ..., nxn}."""
    if n < 1:
        raise ValueError("need n >= 1")
    content = [i for i in range(1, n + 1) for _ in range(i)]
    rng.shuffle(content)
    return Arrangement(tuple(content))


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
    sites = [VACANT] * N
    for pos, label in zip(boxes, labels):
        sites[pos] = label
    return RingWord(tuple(sites))

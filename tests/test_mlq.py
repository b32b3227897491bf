import itertools
import random
from collections import Counter

import pytest

from ringtasep.core import RingWord, TypeVector, VACANT
from ringtasep.mlq import (
    Arrangement,
    DiscreteMLQ,
    LabeledMLQ,
    _bottom_labels_fast,
    _claim_labels,
    bottom_word,
    label_arrangement,
    label_mlq,
    last_row_step,
    materialize,
    sample_arrangement,
)

# the worked 8-column queue (positions 0-based)
FIG_QUEUE = DiscreteMLQ(TypeVector((2, 1, 1), 8), ((3, 4), (0, 2, 4), (1, 5, 6, 7)))


def test_labeling_worked_example():
    l = label_mlq(FIG_QUEUE)
    assert l.labels[0] == (1, 1)
    assert l.labels[1] == (1, 2, 1)
    assert l.labels[2] == (1, 1, 2, 3)


def test_labeling_single_row():
    q = DiscreteMLQ(TypeVector((1,), 5), ((3,),))
    assert label_mlq(q).labels == ((1,),)


def test_labeling_forced_wrap():
    q = DiscreteMLQ(TypeVector((1, 1), 3), ((0,), (1, 2)))
    l = label_mlq(q)
    assert l.labels[1] == (1, 2)


def test_label_counts_exhaustive_small():
    for m in [(1,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]:
        for N in range(sum(m), 7):
            t = TypeVector(m, N)
            pools = [itertools.combinations(range(N), Mi) for Mi in t.M]
            for rows in itertools.product(*pools):
                l = label_mlq(DiscreteMLQ(t, rows))
                for i in range(t.n):
                    for j in range(1, i + 2):
                        expected = t.m[j - 1] if j <= i + 1 else 0
                        assert l.labels[i].count(j) == expected


def test_equal_label_order_independence():
    # process equal labels right-to-left instead; next row labeling agrees
    def claim_rightmost_first(sources, targets, fill):
        reordered = sorted(sources, key=lambda s: (s[0], -s[1]))
        return _claim_labels(reordered, targets, fill)

    for m in [(1, 1), (2, 1), (1, 1, 1)]:
        for N in range(sum(m), 7):
            t = TypeVector(m, N)
            pools = [itertools.combinations(range(N), Mi) for Mi in t.M]
            for rows in itertools.product(*pools):
                cur = [(1, p) for p in rows[0]]
                for r in range(1, t.n):
                    a, _, _ = _claim_labels(cur, rows[r], r + 1)
                    b, _, _ = claim_rightmost_first(cur, rows[r], r + 1)
                    assert a == b
                    cur = sorted(zip(a, rows[r]))


def test_bottom_word_examples():
    assert bottom_word(label_mlq(FIG_QUEUE)) == RingWord.from_dict(8, {1: 1, 5: 1, 6: 2, 7: 3})
    q = DiscreteMLQ(TypeVector((1,), 2), ((0,),))
    assert bottom_word(label_mlq(q)).sites == (1, VACANT)
    q = DiscreteMLQ(TypeVector((1, 1), 3), ((0,), (1, 2)))
    assert bottom_word(label_mlq(q)).sites == (VACANT, 1, 2)


def test_malformed_rows_rejected():
    t = TypeVector((1, 1), 4)
    with pytest.raises(ValueError):
        DiscreteMLQ(t, ((0,), (1,)))  # row 2 must hold 2 boxes
    with pytest.raises(ValueError):
        DiscreteMLQ(t, ((0,), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        DiscreteMLQ(t, ((4,), (1, 2)))  # out of range


def test_bully_paths():
    l = label_mlq(FIG_QUEUE)
    paths = dict((cells[0], (label, cells)) for label, cells in l.paths)
    # class-1 path from the top box at column 3 runs to the bottom box at 5
    label, cells = paths[(0, 3)]
    assert label == 1 and cells == ((0, 3), (1, 4), (2, 5))
    # class-2 path starts on row 2
    label, cells = paths[(1, 2)]
    assert label == 2 and cells == ((1, 2), (2, 6))
    # every path ends on the bottom row
    assert all(cells[-1][0] == 2 for _, cells in l.paths)


def test_arrangement_validation_and_type():
    a = Arrangement((3, 1, 2, 2, 3, 1, 3, 2, 3))
    assert a.type_vector() == TypeVector((2, 1, 1), 9)
    assert Arrangement((1, 2, 2)).type_vector() == TypeVector((1, 1), 3)
    with pytest.raises(ValueError):
        Arrangement((2, 2, 2))  # no row 1
    with pytest.raises(ValueError):
        Arrangement((1, 1, 2))  # row counts must strictly increase


def test_label_arrangement_hand_traces():
    assert label_arrangement(Arrangement((2, 1, 2))) == (2, 1)
    assert label_arrangement(Arrangement((1, 2, 2))) == (1, 2)
    assert label_arrangement(Arrangement((2, 2, 1))) == (1, 2)
    assert label_arrangement(Arrangement((3, 1, 2, 2, 3, 1, 3, 2, 3))) == (3, 1, 2, 1)


def test_label_arrangement_matches_discrete():
    from ringtasep.continuum import enumerate_arrangements

    for n in (2, 3, 4):
        for a in enumerate_arrangements(n):
            got = label_arrangement(a)
            via_discrete = label_mlq(materialize(a)).labels[-1]
            assert got == tuple(via_discrete)


def test_sample_arrangement_determinism_and_uniformity():
    assert sample_arrangement(1, random.Random(5)).order == (1,)
    a = sample_arrangement(4, random.Random(99))
    b = sample_arrangement(4, random.Random(99))
    assert a == b
    counts = {}
    rng = random.Random(7)
    trials = 30000
    for _ in range(trials):
        o = sample_arrangement(2, rng).order
        counts[o] = counts.get(o, 0) + 1
    assert set(counts) == {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    for c in counts.values():
        assert abs(c / trials - 1 / 3) < 0.02


def test_last_row_step_worked_example():
    u = RingWord.from_dict(9, {0: 4, 2: 2, 7: 3, 8: 1})
    assert last_row_step(u, (1, 4, 5, 7)) == RingWord.from_dict(9, {1: 1, 4: 2, 5: 4, 7: 3})


def test_last_row_step_small():
    u = RingWord.from_dict(4, {2: 1})
    assert last_row_step(u, (2,)) == u
    u = RingWord((1, 2))
    assert last_row_step(u, (0, 1)) == u


def test_last_row_step_extra_boxes_get_new_class():
    u = RingWord((1, VACANT, VACANT))
    out = last_row_step(u, (0, 2))
    assert out == RingWord((1, VACANT, 2))


def test_last_row_step_errors():
    with pytest.raises(ValueError):
        last_row_step(RingWord((1, 2, VACANT)), (0,))
    with pytest.raises(ValueError):
        last_row_step(RingWord((1, VACANT)), (0, 0))


def _label_mlq_bottom(rows, N):
    """Bottom labels from label_mlq on the queue the rows define."""
    q = DiscreteMLQ(TypeVector((1,) * len(rows), N), rows)
    return list(label_mlq(q).labels[-1])


def _ranked(rows):
    """Float rows as integer rows with the same joint cyclic order."""
    rank = {v: k for k, v in enumerate(sorted({v for row in rows for v in row}))}
    return [[rank[v] for v in row] for row in rows], len(rank)


def test_fast_labeling_agrees_with_kernel():
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6):
        for _ in range(300):
            rows = [sorted(rng.sample(range(100), i)) for i in range(1, n + 1)]
            assert _bottom_labels_fast(rows, n) == _label_mlq_bottom(rows, 100)
        for _ in range(300):
            rows = [sorted(rng.random() for _ in range(i)) for i in range(1, n + 1)]
            assert _bottom_labels_fast(rows, n) == _label_mlq_bottom(*_ranked(rows))


def test_sampler_labelling_agrees_with_kernel():
    # the sampler draws row r as the next r uniforms of its stream, so the
    # same stream replayed gives the rows it labelled
    from ringtasep.continuum import _mc_word_chunk

    for n in range(1, 7):
        for seed in (f"{n}:0", f"{n}:1"):
            rnd = random.Random(seed).random
            words = Counter()
            for _ in range(300):
                rows = [sorted(rnd() for _ in range(r)) for r in range(1, n + 1)]
                word = _label_mlq_bottom(*_ranked(rows))
                assert _bottom_labels_fast(rows, n) == word
                words[tuple(word)] += 1
            assert _mc_word_chunk((n, 300, seed)) == words


def test_json_roundtrip():
    d = FIG_QUEUE.to_json_dict()
    assert d == {"N": 8, "m": [2, 1, 1], "rows": [[3, 4], [0, 2, 4], [1, 5, 6, 7]]}
    assert DiscreteMLQ.from_json_dict(d) == FIG_QUEUE
    l = label_mlq(FIG_QUEUE)
    jd = l.to_json_dict()
    assert jd["labels"] == [[1, 1], [1, 2, 1], [1, 1, 2, 3]]
    assert all(len(path) == 2 for path in jd["paths"])

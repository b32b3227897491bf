import itertools
import random
from bisect import bisect_left
from collections import Counter

import pytest

from ringtasep.core import RingWord, TypeVector, VACANT
from ringtasep.mlq import (
    Arrangement,
    DiscreteMLQ,
    _box_sets,
    _claim_labels,
    _row_successors,
    _word,
    bottom_word,
    label_arrangement,
    label_mlq,
    last_row_step,
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


def _scan_claim(sources, targets, fill):
    """Reference claim step: scan the target slots for the first one
    unclaimed at or after the source, then from the start of the ring."""
    B = len(targets)
    labels = [0] * B
    claims, wrapped = [], []
    for label, pos in sources:
        start = bisect_left(targets, pos)
        ahead = [k for k in range(start, B) if labels[k] == 0]
        behind = [k for k in range(start) if labels[k] == 0]
        if not ahead and not behind:
            raise ValueError("not enough boxes to absorb all labels")
        chosen = ahead[0] if ahead else behind[0]
        labels[chosen] = label
        claims.append(chosen)
        wrapped.append(not ahead)
    return [label or fill for label in labels], claims, wrapped


def test_claim_labels_matches_scan_reference():
    # every row of up to N = 6 sites with labels 1..3 above every row with
    # at least as many boxes: 80,721 cases
    cases = 0
    for N in range(1, 7):
        for size in range(N + 1):
            for positions in itertools.combinations(range(N), size):
                for labels in itertools.product((1, 2, 3), repeat=size):
                    sources = sorted(zip(labels, positions))
                    for count in range(size, N + 1):
                        for targets in itertools.combinations(range(N), count):
                            assert _claim_labels(sources, targets, 4) == _scan_claim(sources, targets, 4)
                            cases += 1
    assert cases == 80721


def test_claim_labels_refuses_too_few_boxes():
    with pytest.raises(ValueError, match="not enough boxes"):
        _claim_labels([(1, 0), (2, 1)], (3,), 3)
    with pytest.raises(ValueError, match="not enough boxes"):
        _claim_labels([(1, 2)], (), 2)


def test_row_step_on_words_matches_claim_labels():
    # random labelled words, up to three labels with repeats (so m1 >= 2
    # too), stepped over every box set with room for their labels; the
    # claim kernel _claim_labels is the oracle
    rng = random.Random(11)
    cases = 0
    for N in range(1, 9):
        for _ in range(40):
            word = tuple(rng.choice((VACANT, VACANT, 1, 1, 2, 3)) for _ in range(N))
            sources = sorted((label, pos) for pos, label in enumerate(word) if label != VACANT)
            for size in range(len(sources), N + 1):
                want = [_word(N, boxes, _claim_labels(sources, boxes, 4)[0]) for boxes in _box_sets(N, size)]
                assert list(_row_successors(N, size, 4)(word)) == want
                cases += len(want)
    assert cases == 7132


def test_row_step_refuses_too_few_boxes():
    with pytest.raises(ValueError, match="not enough boxes"):
        list(_row_successors(4, 1, 3)((1, 0, 2, 0)))


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
                words[tuple(_label_mlq_bottom(*_ranked(rows)))] += 1
            assert _mc_word_chunk((n, 300, seed)) == words


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_mc_kernel_counts_words_in_order_of_first_sight(n):
    from ringtasep.continuum import _mc_word_chunk

    seed = f"kernel:{n}"
    rnd = random.Random(seed).random
    words = Counter()
    for _ in range(200):
        rows = [sorted(rnd() for _ in range(r)) for r in range(1, n + 1)]
        words[tuple(_label_mlq_bottom(*_ranked(rows)))] += 1
    counts = _mc_word_chunk((n, 200, seed))
    assert counts == words
    assert list(counts) == list(words)


def test_mc_kernel_adds_the_two_codes_of_a_wrapped_claim():
    # at n = 2 label 1 takes the first last-row box both when its box above
    # lies left of the row (index -2) and when it lies right of it, past the
    # end of the ring (index 0): two codes of one word
    from ringtasep.continuum import _mc_kernel, _mc_word_chunk

    codes = _mc_kernel(2)(random.Random("wrap").random, 30)
    assert set(codes) == {(-2,), (-1,), (0,)}
    assert _mc_word_chunk((2, 30, "wrap")) == {(1, 2): codes[(-2,)] + codes[(0,)], (2, 1): codes[(-1,)]}


def test_mc_kernel_is_compiled_once_per_n():
    from ringtasep.continuum import _mc_kernel, _mc_word_chunk

    _mc_kernel.cache_clear()
    for n, seed in ((3, 0), (4, 0), (3, 1), (4, 1), (3, 2)):
        _mc_word_chunk((n, 10, seed))
    info = _mc_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
    assert _mc_kernel(3).__code__.co_filename == "<mc kernel n=3>"  # so tracebacks name it


def test_json_roundtrip():
    d = FIG_QUEUE.to_json_dict()
    assert d == {"N": 8, "m": [2, 1, 1], "rows": [[3, 4], [0, 2, 4], [1, 5, 6, 7]]}
    l = label_mlq(FIG_QUEUE)
    jd = l.to_json_dict()
    assert jd["labels"] == [[1, 1], [1, 2, 1], [1, 1, 2, 3]]
    assert all(len(path) == 2 for path in jd["paths"])

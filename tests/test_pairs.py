import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdx.pairs import (
    SEED,
    ExponentPair,
    InvalidPair,
    _pareto_prune,
    a_process,
    b_process,
    generate_pairs,
    replay_word,
)

F = Fraction


def test_a_process_values():
    assert a_process(SEED).key == (F(0), F(1))  # fixed point
    assert a_process(ExponentPair(F(1, 2), F(1, 2))).key == (F(1, 6), F(2, 3))
    assert a_process(ExponentPair(F(1, 6), F(2, 3))).key == (F(1, 14), F(11, 14))


def test_b_process_values():
    assert b_process(SEED).key == (F(1, 2), F(1, 2))
    assert b_process(ExponentPair(F(1, 2), F(1, 2))).key == (F(0), F(1))
    assert b_process(ExponentPair(F(1, 6), F(2, 3))).key == (F(1, 6), F(2, 3))


def test_word_extension_right_to_left():
    p = replay_word("AAB")
    assert p.key == (F(1, 14), F(11, 14))
    assert p.word == "AAB"


def test_invalid_pairs_rejected():
    with pytest.raises(InvalidPair):
        ExponentPair(F(3, 5), F(1, 2))
    with pytest.raises(InvalidPair):
        ExponentPair(F(0), F(1, 3))
    with pytest.raises(InvalidPair):
        ExponentPair(F(1, 2), F(2, 3))  # sum > 1
    with pytest.raises(InvalidPair):
        ExponentPair(F(0), F(1), "AXB")


def test_generate_depth0():
    fam = generate_pairs(0)
    assert len(fam) == 1
    assert fam.pairs[0] is SEED


def test_generate_depth2_contents():
    fam = generate_pairs(2)
    keys = {p.key for p in fam}
    assert (F(0), F(1)) in keys
    assert (F(1, 2), F(1, 2)) in keys
    assert (F(1, 6), F(2, 3)) in keys


def test_generate_depth3_contains_headline_pair():
    fam = generate_pairs(3)
    match = [p for p in fam if p.key == (F(1, 14), F(11, 14))]
    assert len(match) == 1
    assert match[0].word == "AAB"


def test_family_json_export():
    fam = generate_pairs(3)
    rows = json.loads(fam.to_json())
    assert {"kappa": "1/14", "lambda": "11/14", "word": "AAB"} in rows
    for row in rows:
        assert set(row) == {"kappa", "lambda", "word"}
        assert "." not in row["kappa"] and "." not in row["lambda"]


def test_family_growth_and_size_bound():
    sizes = [len(generate_pairs(d)) for d in range(7)]
    assert sizes == sorted(sizes)
    for d, n in enumerate(sizes):
        assert n <= 2 ** (d + 1) - 1


@pytest.fixture(scope="module")
def depth12():
    return generate_pairs(12)


def test_depth12_invariants(depth12):
    half = F(1, 2)
    for p in depth12:
        assert 0 <= p.kappa <= half <= p.lam <= 1
        assert p.kappa + p.lam <= 1


def test_depth12_replay_determinism(depth12):
    for p in depth12:
        q = replay_word(p.word)
        assert q.kappa == p.kappa and q.lam == p.lam


def test_b_is_involution_on_family(depth12):
    for p in depth12:
        assert b_process(b_process(p)).key == p.key


def test_pareto_prune_removes_dominated():
    fam = generate_pairs(3, prune=True)
    keys = {p.key for p in fam}
    # (1/2, 1/2) is not dominated by anything in the closure; (0, 1) neither
    assert (F(1, 2), F(1, 2)) in keys
    assert (F(0), F(1)) in keys
    full = generate_pairs(3)
    for p in fam:
        for q in full:
            assert not (
                q.kappa <= p.kappa
                and q.lam <= p.lam
                and (q.kappa < p.kappa or q.lam < p.lam)
            )


def brute_force_prune(pairs):
    return [
        p for p in pairs
        if not any(
            q.kappa <= p.kappa and q.lam <= p.lam and (q.kappa < p.kappa or q.lam < p.lam)
            for q in pairs
        )
    ]


def test_pareto_prune_matches_definition():
    # equal kappas, equal lambdas and dominated pairs, which closure
    # families never contain
    keys = [(0, "3/4"), (0, 1), ("1/10", "3/4"), ("1/10", "7/10"), ("1/5", "7/10"),
            ("1/5", "3/5"), ("1/4", "5/8"), ("1/3", "1/2"), ("1/2", "1/2")]
    pairs = [ExponentPair(F(k), F(l), word=None) for k, l in keys]
    kept = _pareto_prune(pairs)
    assert kept == brute_force_prune(pairs)
    assert [p.key for p in kept] == [
        (F(0), F(3, 4)), (F(1, 10), F(7, 10)), (F(1, 5), F(3, 5)), (F(1, 3), F(1, 2))
    ]


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(6, 12)).filter(lambda t: sum(t) <= 12)))
@settings(max_examples=60, deadline=None)
def test_pareto_prune_matches_definition_on_grids(cells):
    pairs = sorted(ExponentPair(F(i, 12), F(j, 12), word=None) for i, j in cells)
    assert _pareto_prune(pairs) == brute_force_prune(pairs)


@given(st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_family_pairs_unique(depth):
    fam = generate_pairs(depth)
    keys = [p.key for p in fam]
    assert len(keys) == len(set(keys))

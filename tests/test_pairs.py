import copy
import json
import math
import pickle
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdx import pairs
from zdx.pairs import (
    MAX_DEPTH,
    SEED,
    DepthLimitError,
    ExponentPair,
    InvalidPair,
    generate_pairs,
    replay_word,
    sorted_triples,
)
from zdx import rat
from zdx.exact import rat_str

F = Fraction


def a_process(p: ExponentPair) -> ExponentPair:
    """One van der Corput A-step applied to p, on its triple."""
    return pairs._pair(pairs._a(*p.triple), None if p.word is None else "A" + p.word)


def b_process(p: ExponentPair) -> ExponentPair:
    """One van der Corput B-step applied to p (an involution), on its triple."""
    return pairs._pair(pairs._b(*p.triple), None if p.word is None else "B" + p.word)


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
    cases = [
        (F(3, 5), F(1, 2), "", "kappa = 3/5 outside [0, 1/2]"),
        (F(-1, 7), F(1), "", "kappa = -1/7 outside [0, 1/2]"),
        (F(0), F(1, 3), "", "lambda = 1/3 outside [1/2, 1]"),
        (F(0), F(5, 4), "", "lambda = 5/4 outside [1/2, 1]"),
        (F(1, 2), F(2, 3), "", "kappa + lambda = 7/6 exceeds 1"),
        (F(0), F(1), "AXB", "derivation word 'AXB' not over {A, B}"),
    ]
    for kappa, lam, word, message in cases:
        with pytest.raises(InvalidPair) as caught:
            ExponentPair(kappa, lam, word)
        assert str(caught.value) == message


def fraction_checks(kappa, lam, word):
    """ExponentPair's checks decided in Fraction arithmetic: the message of
    the first one that fails, or None."""
    if not (0 <= kappa <= F(1, 2)):
        return f"kappa = {kappa} outside [0, 1/2]"
    if not (F(1, 2) <= lam <= 1):
        return f"lambda = {lam} outside [1/2, 1]"
    if kappa + lam > 1:
        return f"kappa + lambda = {kappa + lam} exceeds 1"
    if word is not None and any(ch not in "AB" for ch in word):
        return f"derivation word {word!r} not over {{A, B}}"
    return None


_EDGE = st.sampled_from([F(0), F(1, 2), F(1)])
# denominators up to 2^24 cover every pair of the depth-22 family
_COORD = st.one_of(_EDGE, st.fractions(F(-1), F(2), max_denominator=2**24))
_NEAR = st.sampled_from([F(0), F(1, 2**24), F(-1, 2**24)])


@given(
    st.data(),
    st.one_of(st.none(), st.sampled_from(["", "AXB"]), st.text("ABX ", max_size=4)),
)
@settings(max_examples=400, deadline=None)
def test_integer_checks_match_fraction_checks(data, word):
    kappa = data.draw(_COORD)
    # lambda on or next to the kappa + lambda = 1 edge half the time
    lam = data.draw(st.one_of(_COORD, _NEAR.map(lambda e: 1 - kappa + e)))
    want = fraction_checks(kappa, lam, word)
    if want is None:
        assert ExponentPair(kappa, lam, word).key == (kappa, lam)
    else:
        with pytest.raises(InvalidPair) as caught:
            ExponentPair(kappa, lam, word)
        assert str(caught.value) == want


@dataclass(frozen=True, order=True)
class DataclassPair:
    """The frozen dataclass ``ExponentPair`` was before it stored its triple:
    the oracle for the slotted one."""

    kappa: Fraction
    lam: Fraction
    word: str | None = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", rat(self.kappa))
        object.__setattr__(self, "lam", rat(self.lam))
        k, l = self.kappa, self.lam
        a, b, c, d = k.numerator, k.denominator, l.numerator, l.denominator
        if not (0 <= a and 2 * a <= b):
            raise InvalidPair(f"kappa = {rat_str(k)} outside [0, 1/2]")
        if not (d <= 2 * c <= 2 * d):
            raise InvalidPair(f"lambda = {rat_str(l)} outside [1/2, 1]")
        if a * d + c * b > b * d:
            raise InvalidPair(f"kappa + lambda = {rat_str(k + l)} exceeds 1")
        if self.word is not None and self.word.strip("AB"):
            raise InvalidPair(f"derivation word {self.word!r} not over {{A, B}}")

    @property
    def key(self):
        return (self.kappa, self.lam)

    @property
    def triple(self):
        k, l = self.kappa, self.lam
        q = math.lcm(k.denominator, l.denominator)
        return k.numerator * (q // k.denominator), l.numerator * (q // l.denominator), q

    def __str__(self) -> str:
        return f"({rat_str(self.kappa)}, {rat_str(self.lam)})"


def fraction_a(kappa, lam):
    den = 2 * kappa + 2
    return kappa / den, (kappa + lam + 1) / den


def fraction_b(kappa, lam):
    return lam - F(1, 2), kappa + F(1, 2)


def _admissible(data):
    kappa = data.draw(st.one_of(_EDGE.filter(lambda k: k <= F(1, 2)),
                                st.fractions(F(0), F(1, 2), max_denominator=2**24)))
    lam = data.draw(st.one_of(st.sampled_from([F(1, 2), 1 - kappa, F(1)]).filter(
        lambda l: l <= 1 - kappa), st.fractions(F(1, 2), 1 - kappa, max_denominator=2**24)))
    return kappa, lam


_WORD = st.one_of(st.none(), st.sampled_from(["", "AXB"]), st.text("ABX ", max_size=4))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pair_matches_dataclass_oracle(data):
    built = []
    for _ in range(data.draw(st.integers(1, 6))):
        if built and data.draw(st.booleans()):
            # an equal pair under a new word
            kappa, lam = data.draw(st.sampled_from(built))[1].key
        elif data.draw(st.booleans()):
            kappa, lam = _admissible(data)
        else:
            kappa = data.draw(_COORD)
            lam = data.draw(st.one_of(_COORD, _NEAR.map(lambda e: 1 - kappa + e)))
        word = data.draw(_WORD)
        try:
            want = DataclassPair(kappa, lam, word)
        except InvalidPair as error:
            with pytest.raises(InvalidPair) as caught:
                ExponentPair(kappa, lam, word)
            assert str(caught.value) == str(error)
            continue
        got = ExponentPair(kappa, lam, word)
        assert (got.kappa, got.lam, got.key, got.triple, got.word, str(got)) == (
            want.kappa, want.lam, want.key, want.triple, want.word, str(want))
        assert type(got.kappa) is type(got.lam) is Fraction
        assert repr(got) == repr(want).replace("DataclassPair", "ExponentPair")
        assert hash(got) == hash(want)
        for name in ("kappa", "lam", "word", "triple", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(got, name, F(0))
            with pytest.raises(FrozenInstanceError):
                delattr(got, name)
        for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert (clone.triple, clone.word) == (got.triple, got.word)
        built.append((got, want))
    for got, want in built:
        for got2, want2 in built:
            assert [got == got2, got != got2, got < got2, got <= got2, got > got2,
                    got >= got2] == [want == want2, want != want2, want < want2,
                                     want <= want2, want > want2, want >= want2]
        assert got != want and got.__eq__(want) is NotImplemented
    order = sorted(range(len(built)), key=lambda i: built[i][0])
    assert order == sorted(range(len(built)), key=lambda i: built[i][1])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_processes_on_triples_match_fraction_processes(data):
    kappa, lam = _admissible(data)
    word = data.draw(st.one_of(st.none(), st.text("AB", max_size=4)))
    pair = ExponentPair(kappa, lam, word)
    for step, letter, fraction_step in ((a_process, "A", fraction_a), (b_process, "B", fraction_b)):
        got = step(pair)
        assert got.key == fraction_step(kappa, lam)
        assert got.triple == DataclassPair(*got.key).triple
        assert got.word == (None if word is None else letter + word)


@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
def test_family_equals_pairs_rebuilt_by_constructor(depth):
    for pair in generate_pairs(depth):
        rebuilt = ExponentPair(pair.kappa, pair.lam, pair.word)
        assert (pair.triple, pair.word) == (rebuilt.triple, rebuilt.word)
        assert pair == rebuilt and hash(pair) == hash(rebuilt)


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


def assert_indented_json_dumps(family):
    rows = [{"kappa": rat_str(p.kappa), "lambda": rat_str(p.lam), "word": p.word} for p in family]
    assert family.to_json() == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
def test_family_json_is_indented_json_dumps(depth):
    assert_indented_json_dumps(generate_pairs(depth))


def test_family_json_of_injected_and_empty_families():
    injected = ExponentPair(F(1, 14), F(11, 14), word=None)
    assert_indented_json_dumps(pairs.PairFamily((injected, SEED), 0))
    assert_indented_json_dumps(pairs.PairFamily((), 0))
    assert pairs.PairFamily((), 0).to_json() == "[]\n"


def test_family_growth_and_size_bound():
    sizes = [len(generate_pairs(d)) for d in range(7)]
    assert sizes == sorted(sizes)
    for d, n in enumerate(sizes):
        assert n <= 2 ** (d + 1) - 1


def bfs_reference(depth):
    """Closure under both steps, taken in Fractions, at every level, first
    word kept, sorted: the oracle pairs."""
    seen = {(F(0), F(1)): ""}
    frontier = [(F(0), F(1))]
    for _ in range(depth):
        nxt = []
        for key in frontier:
            word = seen[key]
            for letter, child in (("A", fraction_a(*key)), ("B", fraction_b(*key))):
                if child not in seen:
                    seen[child] = letter + word
                    nxt.append(child)
        frontier = nxt
    return [DataclassPair(*key, seen[key]) for key in sorted(seen)]


# the sort key's exactness depends on the largest denominator, 23 bits at MAX_DEPTH
@pytest.mark.parametrize("depth", [*range(15), 18, MAX_DEPTH])
def test_generate_matches_bfs_reference(depth):
    got = generate_pairs(depth).pairs
    want = bfs_reference(depth)
    assert [(p.key, p.word) for p in got] == [(p.key, p.word) for p in want]


def test_depth_budget():
    with pytest.raises(DepthLimitError, match=f"budget of {MAX_DEPTH}"):
        generate_pairs(MAX_DEPTH + 1)
    with pytest.raises(ValueError):
        generate_pairs(10**6)


def test_depth_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(pairs, "MAX_DEPTH", 3)
    assert len(generate_pairs(3)) == len(bfs_reference(3))
    with pytest.raises(DepthLimitError):
        generate_pairs(4)


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


@pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
def test_family_is_a_pareto_chain(depth):
    # kappa strictly rising and lambda strictly falling: no pair dominates
    # another, which is why the family needs no Pareto prune
    fam = generate_pairs(depth).pairs
    assert all(p.kappa < q.kappa and p.lam > q.lam for p, q in zip(fam, fam[1:]))


@st.composite
def _near_triples(draw):
    """Triples (p, r, q, i) whose p/q, and some r/q, lie within about 1/q of
    one rational a/b with b below 2^24: neighbours a key that is too coarse
    would tie or swap.  Some repeat an earlier point with a new tag."""
    b = draw(st.integers(1, 2**24))
    a = draw(st.integers(0, b))
    rows = []
    for i in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            rows.append((*draw(st.sampled_from(rows))[:3], i))
            continue
        q = draw(st.integers(1, 2**24))
        p = max(0, a * q // b + draw(st.integers(-1, 1)))
        r = draw(st.one_of(st.just(p), st.integers(0, q)))
        rows.append((p, r, q, i))
    return rows


@given(_near_triples())
@settings(max_examples=300, deadline=None)
def test_sorted_triples_is_the_exact_stable_rational_sort(rows):
    want = sorted(rows, key=lambda t: (F(t[0], t[2]), F(t[1], t[2])))
    assert sorted_triples(rows) == want
    assert sorted_triples([]) == []


@given(st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_family_pairs_unique(depth):
    fam = generate_pairs(depth)
    keys = [p.key for p in fam]
    assert len(keys) == len(set(keys))

"""Permutation core: composition, parity, transpositions, sampling, text
formats."""

from __future__ import annotations

import random

import pytest

from revsynth.errors import WidthMismatchError, WidthOutOfRangeError
from revsynth.permutation import (
    Permutation,
    cycles,
    format_permutation,
    parse_permutation,
    sample_permutation,
    split_rows,
    transpositions,
)


def compose_index_transpositions(size: int, pairs) -> list[int]:
    """Oracle: apply transpositions of ``0 .. size-1`` left to right by
    explicit swapping."""
    result = list(range(size))
    for a, b in pairs:
        for i, v in enumerate(result):
            if v == a:
                result[i] = b
            elif v == b:
                result[i] = a
    return result


def compose_transpositions(width: int, pairs: list[tuple[int, int]]) -> Permutation:
    return Permutation(width, compose_index_transpositions(1 << width, pairs))


def inversion_parity(mapping) -> str:
    """Oracle independent of cycles: parity of the inversion count."""
    inversions = sum(
        1
        for i in range(len(mapping))
        for j in range(i + 1, len(mapping))
        if mapping[i] > mapping[j]
    )
    return "odd" if inversions % 2 else "even"


def test_identity_and_call():
    p = Permutation.identity(3)
    assert p.width == 3
    assert all(p(x) == x for x in range(8))
    assert p.is_identity()


def test_from_cycle_three_cycle():
    p = Permutation.from_cycle(2, (0, 1, 2))
    assert p(0) == 1 and p(1) == 2 and p(2) == 0 and p(3) == 3


def test_then_applies_left_to_right():
    p = Permutation.from_cycle(2, (0, 1))
    q = Permutation.from_cycle(2, (1, 2))
    r = p.then(q)
    # x -> p(x) -> q(p(x))
    assert all(r(x) == q(p(x)) for x in range(4))


def test_inverse():
    rng = random.Random(11)
    for _ in range(20):
        p = sample_permutation(3, "any", seed=rng.getrandbits(32))
        assert p.then(p.inverse()).is_identity()
        assert p.inverse().then(p).is_identity()


def test_mapping_is_immutable():
    p = Permutation.identity(2)
    with pytest.raises(AttributeError):
        p.width = 3
    assert isinstance(p.mapping, tuple)


def test_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        Permutation(0, [])
    with pytest.raises(WidthOutOfRangeError):
        Permutation(17, list(range(1 << 17)))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(2, [0, 0, 1, 2])


def test_images_are_integers():
    p = Permutation(2, [True, False, 3, 2])
    assert p.mapping == (1, 0, 3, 2)
    assert all(type(y) is int for y in p.mapping)
    with pytest.raises(TypeError):
        Permutation(2, [1.0, 0.0, 2.0, 3.0])


def test_three_cycle_decomposes_to_two_transpositions():
    p = Permutation.from_cycle(2, (0, 1, 2))
    pairs = p.to_transpositions()
    assert len(pairs) == 2
    assert compose_transpositions(2, pairs) == p


def test_to_transpositions_reproduces_composition():
    rng = random.Random(23)
    for width in (2, 3, 4):
        for _ in range(15):
            p = sample_permutation(width, "any", seed=rng.getrandbits(32))
            assert compose_transpositions(width, p.to_transpositions()) == p


def test_parity_matches_transposition_count():
    rng = random.Random(31)
    for _ in range(30):
        p = sample_permutation(3, "any", seed=rng.getrandbits(32))
        want = "odd" if len(p.to_transpositions()) % 2 else "even"
        assert want == inversion_parity(p.mapping)
        assert p.parity() == want
        assert p.is_even() == (want == "even")


def test_parity_adds_under_composition():
    rng = random.Random(37)
    for _ in range(25):
        p = sample_permutation(3, "any", seed=rng.getrandbits(32))
        q = sample_permutation(3, "any", seed=rng.getrandbits(32))
        odd = (p.parity() == "odd") ^ (q.parity() == "odd")
        assert (p.then(q).parity() == "odd") == odd


def test_cycles_smallest_first_and_nontrivial():
    p = Permutation(2, [1, 0, 3, 2])
    assert p.cycles() == [(0, 1), (2, 3)]
    assert Permutation.identity(3).cycles() == []


@pytest.mark.parametrize("size", [20, 70, 3, 1, 0, 8, 16])
def test_walker_on_index_sequences_of_any_length(size: int):
    # Weight classes have C(n, k) members, e.g. C(6,3) = 20 and
    # C(8,4) = 70, so the shared walker must not assume a power of two.
    rng = random.Random(size)
    for _ in range(10):
        m = list(range(size))
        rng.shuffle(m)
        pairs = transpositions(m)
        assert compose_index_transpositions(size, pairs) == m
        cyc = cycles(m)
        assert all(c[0] == min(c) and len(c) >= 2 for c in cyc)
        assert [c[0] for c in cyc] == sorted(c[0] for c in cyc)
        assert {x for c in cyc for x in c} == {x for x in range(size) if m[x] != x}
        assert all(m[c[i]] == c[(i + 1) % len(c)] for c in cyc for i in range(len(c)))
        assert pairs == [(c[0], x) for c in cyc for x in c[1:]]
        assert len(pairs) % 2 == (inversion_parity(m) == "odd")
        if size >= 2 and size & (size - 1) == 0:
            p = Permutation(size.bit_length() - 1, m)
            assert cycles(m) == p.cycles()
            assert pairs == p.to_transpositions()
            assert tuple(m) == p.mapping


def test_sample_kinds():
    for seed in range(10):
        any_p = sample_permutation(4, "any", seed=seed)
        even_p = sample_permutation(4, "even", seed=seed)
        cons_p = sample_permutation(4, "conservative", seed=seed)
        assert even_p.is_even()
        assert cons_p.is_conservative()
        assert any_p.width == 4
    # determinism
    assert sample_permutation(3, "any", seed=5) == sample_permutation(3, "any", seed=5)
    with pytest.raises(ValueError):
        sample_permutation(3, "prime", seed=0)


def test_conservative_predicate():
    assert Permutation.identity(3).is_conservative()
    fredkin = Permutation(3, [0, 1, 2, 3, 4, 6, 5, 7])
    assert fredkin.is_conservative()
    assert not Permutation.from_cycle(3, (0, 1)).is_conservative()


def test_format_parse_round_trip():
    rng = random.Random(41)
    for width in (1, 3, 5):
        p = sample_permutation(width, "any", seed=rng.getrandbits(32))
        assert parse_permutation(format_permutation(p)) == p


def test_parse_truth_table_any_row_order():
    text = "\n".join(["# fredkin", "110 101", "000 000", "001 001",
                      "010 010", "011 011", "100 100", "101 110", "111 111"])
    p = parse_permutation(text)
    assert p(0b101) == 0b110 and p(0b110) == 0b101
    assert all(p(x) == x for x in (0, 1, 2, 3, 4, 7))


def test_parse_errors():
    with pytest.raises(WidthMismatchError):
        parse_permutation("perm 2\n0 1 2")  # wrong image count
    with pytest.raises(ValueError):
        parse_permutation("00 01\n01 00\n10 11")  # missing a row
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError):
        parse_permutation("00 01\n00 10\n01 00\n10 11\n11 11")  # duplicate input
    # Rows that leave out 0 or 1 are still checked: int() alone would read
    # 1_1 as 3 and fail on 22 with its own message.
    for row in ("1_1 1_1", "22 11"):
        with pytest.raises(ValueError, match="non-binary truth-table row"):
            parse_permutation(row)
    # The image-list header and images are ASCII decimal, for the same
    # reason: int() would read each width below as 3.
    images = " ".join(str(x) for x in range(8))
    for width in ("\u0663", "0_3", "+3"):
        with pytest.raises(ValueError, match="malformed width"):
            parse_permutation(f"perm {width}\n{images}")
    for image in ("+3", "0_3", "\u0663", "-3"):
        with pytest.raises(ValueError, match="malformed image"):
            parse_permutation(f"perm 2\n0 1 2 {image}")


# Characters that str.splitlines treats as line ends but that are not.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_LINE_ENDS)
def test_spec_rows_end_only_at_line_ends(sep: str):
    # The separator stays inside the comment, so its row adds no images.
    p = parse_permutation(f"perm 2\n0 1 2 3 # was: {sep}1 0 2 3\n")
    assert p == Permutation.identity(2)
    # Outside a comment it is whitespace between two images of one row.
    assert parse_permutation(f"perm 2\n1 0{sep}2 3\n").mapping == (1, 0, 2, 3)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_spec_line_ends(end: str):
    text = end.join(["perm 2", "# images", "3 2", "1 0"]) + end
    assert parse_permutation(text).mapping == (3, 2, 1, 0)


def test_split_rows():
    assert split_rows("") == []
    assert split_rows("a") == ["a"]
    assert split_rows("a\n") == ["a"]
    assert split_rows("a\n\n") == ["a", ""]
    assert split_rows("a\r\nb\rc\n\rd") == ["a", "b", "c", "", "d"]
    joined = "x".join(NOT_LINE_ENDS)
    assert split_rows(joined + "\n") == [joined]

"""Golden outputs: every case under tests/golden reruns byte for byte."""

import pytest

from golden.regenerate import CASES, expected, run_case


def first_difference(got, want):
    """The first line at which the bytes got and want differ: its number and both lines."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    end = [b"<end of file>"]
    for i, (g, w) in enumerate(zip(got_lines + end, want_lines + end), 1):
        if g != w:
            return f"line {i}\n  golden: {w!r}\n  got:    {g!r}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    got = run_case(name, str(tmp_path))
    want = expected(name)
    assert sorted(got) == sorted(want)
    for f in want:
        if got[f] != want[f]:
            pytest.fail(f"{name}/{f} differs from its golden copy at "
                        f"{first_difference(got[f], want[f])}", pytrace=False)


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\n", b"a\nb\n") is None
    assert first_difference(b"t\n1,-0\n", b"t\n1,0\n") == (
        "line 2\n  golden: b'1,0\\n'\n  got:    b'1,-0\\n'")
    assert first_difference(b"a\n", b"a\nb\n") == (
        "line 2\n  golden: b'b\\n'\n  got:    b'<end of file>'")
    assert first_difference(b"a", b"a\n").startswith("line 1\n")

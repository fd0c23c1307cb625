"""Golden outputs: every case under tests/golden reruns byte for byte."""

import pytest

from golden.regenerate import CASES, expected, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path):
    got = run_case(name, str(tmp_path))
    want = expected(name)
    assert sorted(got) == sorted(want)
    for f in want:
        assert got[f] == want[f], f"{name}/{f} differs from its golden copy"

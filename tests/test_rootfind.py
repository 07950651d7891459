"""Guards of the solver skeleton: bisection, golden section, bracketing."""

import pytest

from srbosonic.errors import SolverError
from srbosonic.rootfind import _bracket_and_bisect, bisect, golden_max


class TestBisect:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_invalid_bracket(self, lo, hi):
        with pytest.raises(SolverError, match="invalid bracket"):
            bisect(lambda x: x, lo, hi)

    def test_no_sign_change(self):
        with pytest.raises(SolverError, match="no sign change"):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("lo, hi, root", [(2.0, 5.0, 2.0), (-1.0, 2.0, 2.0)])
    def test_zero_endpoint_is_returned(self, lo, hi, root):
        assert bisect(lambda x: x - root, lo, hi) == root


class TestGoldenMax:
    def test_invalid_bracket(self):
        with pytest.raises(SolverError, match="invalid bracket"):
            golden_max(lambda x: -x * x, 1.0, -1.0)


class TestBracketAndBisect:
    def test_last_step_is_clamped_to_the_bound(self):
        # doubling steps from 0 reach 1, 3, 7, ..., 63; the next, 127, is
        # clamped to the bound 100, past the root at 80
        calls = []

        def f(x):
            calls.append(x)
            return x - 80.0

        root = _bracket_and_bisect(f, 0.0, f(0.0), 100.0, 1.0, xtol=1e-12, maxit=200)
        assert calls[1:8] == [1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 100.0]
        assert all(63.0 <= x <= 100.0 for x in calls[8:])
        assert root == pytest.approx(80.0, abs=1e-12)

    @pytest.mark.parametrize("bound", [100.0, -100.0])
    def test_no_root_before_the_bound(self, bound):
        with pytest.raises(SolverError, match=f"search bound {bound!r}"):
            _bracket_and_bisect(lambda x: 1.0, 0.0, 1.0, bound, 1.0, xtol=1e-12, maxit=200)

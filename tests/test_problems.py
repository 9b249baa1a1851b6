import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracavg.problems import _EXPR_NAMES, compile_expr

# Plain-float semantics of every expression name: the reference that the
# numpy evaluation is checked against.
MATH_NAMES = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
    "abs": abs,
    "min": min,
    "max": max,
    "pi": math.pi,
    "e": math.e,
}

# one expression per name in a, b, c, and the range of finite inputs on
# which the math version is defined and finite
CASES = {
    "sin": ("sin(a)", 1e3),
    "cos": ("cos(a)", 1e3),
    "tan": ("tan(a)", 1e3),
    "exp": ("exp(a)", 700.0),
    "log": ("log(abs(a) + 1e-300)", 1e300),
    "sqrt": ("sqrt(abs(a))", 1e300),
    "tanh": ("tanh(a)", 50.0),
    "abs": ("abs(a)", 1e300),
    "min": ("min(a, b) + min(a, b, c)", 1e300),
    "max": ("max(a, b) - max(c, a, b)", 1e300),
    "pi": ("pi * a", 1e300),
    "e": ("e * a", 1e300),
}


def test_every_name_has_a_case():
    assert set(MATH_NAMES) == set(_EXPR_NAMES) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_numpy_expressions_match_float_semantics(name, data):
    source, bound = CASES[name]
    values = [
        data.draw(st.floats(min_value=-bound, max_value=bound, allow_nan=False), label=arg)
        for arg in ("a", "b", "c")
    ]
    fn = compile_expr(source, ("a", "b", "c"))
    got = fn(*(np.array([v]) for v in values))
    want = eval(source, {"__builtins__": {}}, dict(MATH_NAMES, a=values[0], b=values[1], c=values[2]))
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - want) <= 1e-15 * abs(want)


def test_batch_contract_shapes():
    drift = compile_expr("x * cos(t)", ("t", "x"))
    diffusion = compile_expr("0.5", ("t", "x"), shape=(1, 1))
    states = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(drift(0.0, states), states)
    np.testing.assert_array_equal(drift(np.zeros(3), states), states)
    assert diffusion(0.0, states).shape == (3, 1, 1)
    assert np.all(diffusion(0.0, states) == 0.5)


def test_domain_error_gives_nan():
    fn = compile_expr("log(x)", ("x",))
    with np.errstate(invalid="ignore"):
        out = fn(np.array([[-1.0], [math.e]]))
    assert math.isnan(out[0, 0])
    assert out[1, 0] == pytest.approx(1.0, rel=1e-15)

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracavg.errors import ConfigError
from fracavg.harness import ExperimentConfig
from fracavg.levy import NoiseBlock, TimeGrid, sample_noise
from fracavg.problems import _EXPR_NAMES, build_problem, compile_expr
from fracavg.solver import _Constant, _Linear, solve_coupled

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


def eval_reference(source, args, values, shape=(1,)):
    """The evaluator as an ``eval`` of the source on every call, with the
    arguments as its locals."""
    columns = [v[:, 0] if v.ndim == 2 else v for v in values]
    out = np.empty(np.broadcast(*columns).shape)
    out[...] = eval(
        compile(source, "<coefficient>", "eval"),
        {"__builtins__": {}, **_EXPR_NAMES},
        dict(zip(args, columns)),
    )
    return out.reshape((-1,) + shape)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_body_matches_eval_bit_for_bit(name, data):
    source, bound = CASES[name]
    finite = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    values = [np.array(data.draw(st.lists(finite, min_size=3, max_size=3), label=arg)) for arg in "abc"]
    values[0] = values[0][:, None]  # the state as a (P, 1) column
    fn = compile_expr(source, ("a", "b", "c"))
    got = fn(*values)
    assert got.tobytes() == eval_reference(source, ("a", "b", "c"), values).tobytes()


@pytest.mark.parametrize(
    "source, value",
    [("x * 2  # doubled", 6.0), ("(x +\n 1)", 4.0), ("x # ) + (1", 3.0)],
    ids=["comment", "line_break", "comment_with_parenthesis"],
)
def test_comments_and_line_breaks_still_compile(source, value):
    fn = compile_expr(source, ("t", "x"))
    assert fn(0.0, np.array([[3.0]]))[0, 0] == value


@pytest.mark.parametrize("source", ["x), (__import__", "x), (1", "x) + (x", "x)\n#"])
def test_breaking_out_of_the_wrapper_is_a_config_error(source):
    with pytest.raises(ConfigError, match="bad coefficient expression"):
        compile_expr(source, ("t", "x"))


def test_batch_contract_shapes():
    drift = compile_expr("x * cos(t)", ("t", "x"))
    diffusion = compile_expr("0.5", ("t", "x"), shape=(1, 1))
    states = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(drift(0.0, states), states)
    np.testing.assert_array_equal(drift(np.zeros(3), states), states)
    assert diffusion(0.0, states).shape == (3, 1, 1)
    assert np.all(diffusion(0.0, states) == 0.5)


@pytest.mark.parametrize("source", ["x", "z", "min(x)", "x[:]"])
def test_batched_result_can_be_written_without_changing_the_arguments(source):
    fn = compile_expr(source, ("t", "x", "z"))
    states = np.array([[1.0], [2.0], [3.0]])
    marks = np.array([4.0, 5.0, 6.0])  # owns its memory, like the tiled table nodes
    out = fn(0.0, states, marks)
    expected = states if source != "z" else marks[:, None]
    assert out.shape == (3, 1) and out.dtype == np.float64
    assert np.array_equal(out, expected)
    out[:] = -1.0
    assert np.array_equal(states, [[1.0], [2.0], [3.0]])
    assert np.array_equal(marks, [4.0, 5.0, 6.0])


def test_batched_results_are_float64_columns_of_the_batch():
    states = np.array([[0.5], [1.5], [2.5]])
    t = 0.3
    out = compile_expr("sin(t)", ("t", "x"))(t, states)  # a scalar result is broadcast
    assert out.shape == (3, 1) and np.all(out == math.sin(t))
    out = compile_expr("x > 1", ("t", "x"))(t, states)
    assert out.dtype == np.float64 and out.tolist() == [[0.0], [1.0], [1.0]]
    out = compile_expr("0.5*x", ("t", "x"), shape=(1, 1))(t, states)
    assert out.shape == (3, 1, 1) and np.array_equal(out[:, :, 0], 0.5 * states)


LINEAR = ["x", "-x", "x/3", "x - x*cos(t)", "-x*(1+cos(t))", "z*x*sin(t)**2", "abs(z-0.1)*x"]
NOT_LINEAR = ["x*x", "x**1", "sin(x)", "x+1", "abs(x)", "min(x, 1)", "(lambda: x)()", "(lambda x: x)(2)*x"]


@pytest.mark.parametrize("source", LINEAR)
def test_state_linear_expressions_are_linear(source):
    # a call evaluates the source bit for bit; the factor is the source at x = 1
    fn = compile_expr(source, ("t", "x", "z"))
    assert isinstance(fn, _Linear)
    t, z = np.array([0.0, 0.7, 2.0]), np.array([0.01, 0.2, 0.45])
    states = np.array([[1.5], [-0.3], [4.0]])
    got = fn(t, states, z)
    assert got.tobytes() == eval_reference(source, ("t", "x", "z"), [t, states, z]).tobytes()
    factor = np.broadcast_to(fn.at(t, z), (3,))
    np.testing.assert_array_equal(factor, eval_reference(source, ("t", "x", "z"), [t, np.ones(3), z])[:, 0])
    np.testing.assert_allclose(factor[:, None] * states, got, rtol=1e-15, atol=0)


@pytest.mark.parametrize("source", NOT_LINEAR)
def test_other_expressions_of_x_are_not_linear(source):
    assert not isinstance(compile_expr(source, ("t", "x", "z")), _Linear)


def test_a_sum_nested_too_deeply_to_inspect_still_compiles():
    # deeper than the recursion limit of the linearity check, not of the compiler
    fn = compile_expr("+".join(["x"] * 1500), ("t", "x"))
    assert not isinstance(fn, _Linear)
    assert fn(0.0, np.array([[2.0]]))[0, 0] == 3000.0


def test_a_sum_nested_too_deeply_to_compile_is_a_config_error():
    source = "+".join(["x"] * 5000)
    with pytest.raises(ConfigError, match="nested too deeply to compile") as refused:
        compile_expr(source, ("t", "x"))
    # quoted by its first 40 characters and its length, not all 9999
    assert str(refused.value).startswith(f"coefficient expression {source[:40]!r}... (9999 characters) ")
    assert len(str(refused.value)) < 200


def test_a_long_unknown_name_is_quoted_by_its_start_and_length():
    name = "a" * 3000
    with pytest.raises(ConfigError, match="uses unknown name") as refused:
        compile_expr(name, ("t", "x"))
    shown = f"{name[:40]!r}... (3000 characters)"
    assert str(refused.value).startswith(f"coefficient expression {shown} uses unknown name {shown} ")
    assert len(str(refused.value)) < 300  # 6121 characters when both were quoted whole


def test_a_linear_expression_of_matrix_shape_is_not_linear():
    assert not isinstance(compile_expr("0.5*x", ("t", "x"), shape=(1, 1)), _Linear)
    assert isinstance(compile_expr("0.5*x", ("t", "x")), _Linear)


def test_domain_error_gives_nan():
    fn = compile_expr("log(x)", ("x",))
    with np.errstate(invalid="ignore"):
        out = fn(np.array([[-1.0], [math.e]]))
    assert math.isnan(out[0, 0])
    assert out[1, 0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("source", ["1/0", "10.0**400", "(-8)**(1/3)"])
def test_literal_arithmetic_that_cannot_be_evaluated_is_a_config_error(source):
    # parts built from literals alone run as Python arithmetic, which raises
    with pytest.raises(ConfigError, match=re.escape(repr(f"x + {source}"))):
        compile_expr(f"x + {source}", ("t", "x"))


@pytest.mark.parametrize(
    "source",
    [
        "(lambda: ().__class__.__name__.__len__())()",
        "max(*(c.__class__.__name__.__len__() for c in (x, x)))",
    ],
    ids=["lambda", "generator"],
)
def test_names_in_nested_bodies_are_checked(source):
    with pytest.raises(ConfigError, match="unknown name '__class__'"):
        compile_expr(source, ("t", "x"))


@pytest.mark.parametrize("paths", [1, 2, 64])
def test_constant_diffusion_is_one_read_only_array_per_shape(paths):
    expr = compile_expr("0.5", ("t", "x"), shape=(1, 1))
    for diffusion in (_Constant(0.5), lambda x: expr(0.3, x)):
        states = np.zeros((paths, 1))
        out = diffusion(states)
        assert out.shape == (paths, 1, 1) and np.all(out == 0.5)
        assert not out.flags.writeable
        assert diffusion(np.ones((paths, 1))) is out
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0


EXPR_CONSTANT = {
    "problem": "expr", "drift_expr": "-x", "diffusion_expr": "0.5",
    "avg_drift_expr": "-x", "avg_diffusion_expr": "0.5",
}


@pytest.mark.parametrize("problem", ["eq10", "mlbench", "expr"])
@pytest.mark.parametrize("paths", [1, 2, 64])
def test_solver_leaves_the_constant_diffusion_unchanged(problem, paths):
    fields = EXPR_CONSTANT if problem == "expr" else {"problem": problem}
    cfg = ExperimentConfig(**fields, horizon=0.7, step=0.01).resolved()
    built = build_problem(cfg)
    grid = TimeGrid.from_horizon(cfg.horizon, cfg.step)
    noise = NoiseBlock(tuple(
        sample_noise(built.spec, grid, dim=1, seed=3, stream_key=(i,), include_jumps=False)
        for i in range(paths)
    ))
    value = {"eq10": 1.0, "mlbench": 0.0, "expr": 0.5}[problem]
    states = np.zeros((paths, 1))
    before = built.averaged.diffusion(states)
    solved = solve_coupled(built.coeffs, built.averaged, noise, built.x0, cfg.epsilon, built.beta)
    assert not any(solved.failures)
    after = built.averaged.diffusion(states)
    assert after is before and not after.flags.writeable
    assert after.shape == (paths, 1, 1) and np.all(after == value)
    assert built.coeffs.diffusion(0.3, states).shape == (paths, 1, 1)

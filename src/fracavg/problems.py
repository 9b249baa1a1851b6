"""Built-in problems: the eq10 worked example, mlbench and expression coefficients.

A Problem bundles everything one experiment needs: original and averaged
coefficient sets, the jump measure, the initial state, and the kernel order.
Problems are rebuilt from plain config values inside worker processes, so
builders must depend only on picklable inputs.
"""

from __future__ import annotations

import ast
import functools
import math
import types
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .kernels import FractionalOrder
from .levy import JumpMeasureSpec
from .solver import AveragedCoefficientSet, CoefficientSet, JumpMode, _Batched, _Constant, _Linear

# Worked-example parameter presets (beta, alpha, gamma).
FIG1_CASES = {
    "a": (0.6, 0.3, 3.0),
    "b": (0.6, 1.1, 0.6),
    "c": (0.85, 0.3, 0.6),
    "d": (0.85, 1.9, 3.0),
}


@dataclass(frozen=True)
class Problem:
    """The solver inputs of one experiment: original and averaged coefficient
    sets, the jump measure (None without jumps), the initial state and the
    kernel order.

    A Problem keeps no copy of the values it was built from: ``build_problem``
    builds it from an ExperimentConfig in one step, and that config, which the
    manifest records as ``effective_config``, is their only record.
    """

    coeffs: CoefficientSet
    averaged: AveragedCoefficientSet
    spec: Optional[JumpMeasureSpec]
    x0: np.ndarray
    beta: FractionalOrder
    # drift-folded averaged form (jump drift absorbed into the drift slot);
    # dynamics-equivalent to ``averaged``, kept for cross-checks
    folded_averaged: Optional[AveragedCoefficientSet] = None

    @property
    def needs_jump_events(self) -> bool:
        """Whether the noise must sample jump events: only compensated jumps use them."""
        return self.coeffs.jump is not None and self.coeffs.jump_mode == JumpMode.COMPENSATED


def jump_drift_scale(gamma: float, alpha: float, cutoff: float) -> float:
    """Closed-form integral of x^4 against the jump measure on (0, cutoff)."""
    return gamma * cutoff ** (4.0 - alpha) / (4.0 - alpha)


def build_eq10(
    beta: float,
    alpha: float,
    gamma: float,
    cutoff: float,
    epsilon: float,
    x0: float = 0.1,
    delta: float | None = None,
) -> Problem:
    """The oscillating scalar example and its time-averaged companion.

    Original system: drift 2 x cos^2(t), unit additive diffusion, and a
    deterministic jump drift integrating 2 z^4 sin^2(t) x against the
    power-law measure.  Averaged system (slot form): drift x, unit diffusion,
    jump-drift scale * x.  The drift-folded form (1 + gamma1) x with
    gamma1 = scale / sqrt(epsilon) is attached for cross-checks.  The unit
    diffusion is a ``_Constant`` (its noise terms are filled before the time
    loop) and every drift and jump drift a ``_Linear`` whose factor is a
    float or a numpy function of t, so both systems are affine: the solver
    tabulates c_drift a(t) + c_stoch b(t) once per solve, one call of each
    factor on the column of step times, and solves every near-field block
    of steps at once (16 blocks at the default N = 1000).  The jump
    coefficients stay callables for the hypothesis probes, which integrate
    them at arrays of marks, one per row of the state (the batch contract):
    through ``x.T`` a mark scales its row of a (P, dim) state, or its entry
    of a 1-D one.
    """
    spec = JumpMeasureSpec(gamma=gamma, alpha=alpha, cutoff=cutoff, delta=delta)
    scale = jump_drift_scale(gamma, alpha, cutoff)
    gamma1 = scale / math.sqrt(epsilon)
    unit = _Constant(1.0)

    coeffs = CoefficientSet(
        drift=_Linear(lambda t: 2.0 * np.cos(t) ** 2),
        diffusion=unit,
        jump=lambda t, x, z: (2.0 * z**4 * np.sin(t) ** 2 * x.T).T,
        jump_mode=JumpMode.NU_DRIFT,
        jump_drift=_Linear(lambda t: 2.0 * np.sin(t) ** 2 * scale),
    )
    averaged = AveragedCoefficientSet(
        drift=_Linear(1.0),
        diffusion=unit,
        jump=lambda x, z: (z**4 * x.T).T,
        jump_mode=JumpMode.NU_DRIFT,
        jump_drift=_Linear(scale),
    )
    folded = AveragedCoefficientSet(drift=_Linear(1.0 + gamma1), diffusion=unit)
    return Problem(
        coeffs=coeffs,
        averaged=averaged,
        folded_averaged=folded,
        spec=spec,
        x0=np.array([x0]),
        beta=FractionalOrder(beta),
    )


def build_mlbench(beta: float, x0: float = 1.0) -> Problem:
    """Deterministic linear benchmark with the known Mittag-Leffler solution.

    Drift x as a ``_Linear`` and a zero ``_Constant`` diffusion: an affine
    system with one constant factor per solve, solved a near-field block of
    steps at a time (every block, as for eq10).
    """
    zero = _Constant(0.0)
    coeffs = CoefficientSet(drift=_Linear(1.0), diffusion=zero)
    averaged = AveragedCoefficientSet(drift=_Linear(1.0), diffusion=zero)
    return Problem(
        coeffs=coeffs,
        averaged=averaged,
        spec=None,
        x0=np.array([x0]),
        beta=FractionalOrder(beta),
    )


_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "min": lambda first, *rest: functools.reduce(np.minimum, rest, first),
    "max": lambda first, *rest: functools.reduce(np.maximum, rest, first),
    "pi": math.pi,
    "e": math.e,
}


def _shown(text: str) -> str:
    """``text`` quoted, or for one longer than 40 characters its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _names(code) -> list[str]:
    """Global and attribute names looked up by a code object and every code
    object nested in it (lambda, generator and comprehension bodies)."""
    names = list(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names += _names(const)
    return names


def _x_degree(node):
    """The degree in x of an expression's syntax tree: 0 when it does not name
    x, 1 when it is state-linear (x, a product of a linear term and an x-free
    one, a linear term divided by an x-free one, or a sum, difference or
    negation of linear terms), else None."""
    if isinstance(node, ast.Name):
        return int(node.id == "x")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _x_degree(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left, right = _x_degree(node.left), _x_degree(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Mult):
            return left + right if left + right < 2 else None
        if isinstance(node.op, ast.Div):
            return left if right == 0 else None
        return left if left == right else None
    return 0 if all(_x_degree(child) == 0 for child in ast.iter_child_nodes(node)) else None


def _state_linear(source: str) -> bool:
    """Whether an expression is of degree 1 in x; one nested too deeply to inspect is not."""
    try:
        return _x_degree(ast.parse(source, mode="eval").body) == 1
    except RecursionError:
        return False


def compile_expr(source: str, args: tuple[str, ...], shape: tuple[int, ...] = (1,)):
    """Compile a scalar coefficient expression into a batch-contract evaluator.

    Only the listed arguments and a fixed set of math names are visible;
    anything else is rejected up front with the offending name, also inside
    a lambda, generator or comprehension body.  The checked source is then
    compiled once into a function of the arguments, ``lambda t, x: (source)``
    with the same names visible, and the evaluator (``_Batched``) calls that
    function: once on the whole batch as the solver's batch contract hands it
    over, a (P, 1) state and times or marks as scalars or (P,) arrays,
    returning shape (P,) + ``shape``.  An operation with no real value, such
    as the log of a negative state, gives nan and an overflow gives inf,
    which the solver records as a failure of that path.

    The expression is evaluated once here, with every argument one.  A part
    of it built from literals alone runs as Python arithmetic, so one that
    cannot be evaluated to a real number, such as ``1/0``, ``10.0**400`` or
    ``(-8)**(1/3)``, is a ConfigError naming the expression, as is an
    expression nested too deeply to compile.  A refusal quotes a source or
    name longer than 40 characters by its first 40 and its length.  An
    expression that names none of its arguments is a constant: its
    evaluator returns one read-only array per batch size.

    An expression of result shape (1,) that is state-linear by its syntax
    tree (``_state_linear``: ``-x*(1+cos(t))``, ``x - x*cos(t)``,
    ``z*x*sin(t)**2``, not ``x*x``, ``x**1``, ``x+1`` or ``sin(x)``) is a
    ``_Linear``: a call still evaluates the source, and its factor is the
    expression at x = 1 (a constant when it names no other argument), which
    the solver's affine block solve reads once per solve.
    """
    # the source parsed alone as one expression, so inside the parentheses it
    # is that expression; the line breaks end a trailing comment
    wrapper = f"lambda {', '.join(args)}: (\n{source}\n)"
    try:
        code = compile(source, "<coefficient>", "eval")
        wrapped = compile(wrapper, "<coefficient>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad coefficient expression {_shown(source)}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(
            f"coefficient expression {_shown(source)} is nested too deeply to compile"
        ) from None
    allowed = set(_EXPR_NAMES) | set(args)
    names = _names(code)
    for name in names:
        if name not in allowed:
            raise ConfigError(
                f"coefficient expression {_shown(source)} uses unknown name {_shown(name)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
    body = eval(wrapped, {"__builtins__": {}, **_EXPR_NAMES})

    probe = np.empty(1)
    try:
        with np.errstate(all="ignore"):
            value = body(*[np.ones(1)] * len(args))
            np.copyto(probe, value, casting="same_kind")  # a complex value is refused
    except Exception as exc:  # any error of the expression itself is a config error
        raise ConfigError(
            f"coefficient expression {_shown(source)} cannot be evaluated: {exc}"
        ) from None
    if set(args).isdisjoint(names):
        return _Constant(probe[0], shape)
    call = _Batched(body, shape)
    if "x" not in args or shape != (1,) or not _state_linear(source):
        return call
    if (set(args) - {"x"}).isdisjoint(names):  # a constant factor
        return _Linear(probe[0], call)
    i = args.index("x")
    one = np.float64(1.0)
    return _Linear(lambda *rest: body(*rest[:i], one, *rest[i:]), call)


def build_problem(config) -> Problem:
    """Build the problem an ExperimentConfig names, in one step from its fields.

    eq10 and mlbench take their parameters from it; an ``expr`` problem
    compiles its expression fields in t, x (and z for the jump) and takes
    its jump measure from gamma, alpha, cutoff and delta.
    """
    name = config.problem
    if name == "eq10":
        return build_eq10(
            beta=config.beta,
            alpha=config.alpha,
            gamma=config.gamma,
            cutoff=config.cutoff,
            epsilon=config.epsilon,
            x0=config.x0,
            delta=config.delta,
        )
    if name == "mlbench":
        return build_mlbench(beta=config.beta, x0=config.x0)
    if name == "expr":
        if config.drift_expr is None or config.diffusion_expr is None:
            raise ConfigError("expr problems need drift_expr and diffusion_expr")
        if config.avg_drift_expr is None or config.avg_diffusion_expr is None:
            raise ConfigError("expr problems need avg_drift_expr and avg_diffusion_expr")
        mode = JumpMode(config.jump_mode)
        spec = None
        if config.jump_expr is not None:
            if config.gamma is None or config.alpha is None or config.cutoff is None:
                raise ConfigError(
                    "a jump expression needs the measure parameters gamma, alpha, cutoff"
                )
            spec = JumpMeasureSpec(
                gamma=config.gamma, alpha=config.alpha, cutoff=config.cutoff, delta=config.delta
            )
        f = compile_expr(config.drift_expr, ("t", "x"))
        g = compile_expr(config.diffusion_expr, ("t", "x"), shape=(1, 1))
        fbar = compile_expr(config.avg_drift_expr, ("x",))
        gbar = compile_expr(config.avg_diffusion_expr, ("x",), shape=(1, 1))
        h = compile_expr(config.jump_expr, ("t", "x", "z")) if spec is not None else None
        hbar_drift = (
            compile_expr(config.avg_jump_drift_expr, ("x",))
            if config.avg_jump_drift_expr is not None
            else None
        )
        return Problem(
            coeffs=CoefficientSet(drift=f, diffusion=g, jump=h, jump_mode=mode),
            averaged=AveragedCoefficientSet(
                drift=fbar, diffusion=gbar, jump_mode=mode, jump_drift=hbar_drift
            ),
            spec=spec,
            x0=np.array([config.x0]),
            beta=FractionalOrder(config.beta),
        )
    raise ConfigError(f"unknown problem {name!r} (built in: eq10, mlbench, expr)")

"""Scalar fields over named coordinates with exact differentiation.

The expression AST is the substrate for every symbolic object in the
toolkit: distribution coefficients, differential-form components, vector
fields, diffeomorphisms.  Trees are canonicalized at construction
(flattening, constant folding, like-term collection, stable operand
order) so that algebraically obvious cancellations collapse to the
literal zero field.  On top of the pure expression nodes there is one
opaque numeric leaf, `SplineLeaf`, which wraps an interpolant of sampled
data and knows its own exact derivatives; smoothing pipelines use it to
feed grid data through the same exterior-calculus code paths as closed
forms.

Evaluation has two paths that give the same bits.  Field.evaluate is
the reference: a tree walk over an environment mapping coordinate names
to scalars or numpy arrays; constant folding and the tests use it.  The
library evaluates through compile_fields and eval_fields instead: a
field list becomes one generated numpy function of points (..., d),
each distinct subexpression computed once, with the reference's operand
order, ufuncs, guard and domain-error texts; compile_rk4_run builds
a flow's RK4 run over a stretch of steps from the same statements, as
array code for a batch and as float code for one row.
Both paths keep one errstate rule: Mul, Pow and the elementary
functions run under np.errstate(all="ignore"), Add does not, so an
array inf + -inf warns on either path.  The single deliberate evaluation convention is that a
product with a zero factor is zero even when another factor is
infinite, which makes terms like s*log(s) evaluate to 0 at s = 0.

The elementary functions log, exp, sin and cos are one node class,
`Unary`, reading one table, `_FUNCTIONS`: rank in the canonical order,
numpy ufunc, domain message (log only) and derivative rule.  The
constructors, `diff`, `evaluate`, `expand`, printing and the parser all
read that table.  Folding follows evaluation: a unary node with a
constant argument folds by evaluating itself, so exp(1000) folds to inf
and sin(1e400) to nan, and a product with an exact-zero constant factor
folds to 0 as `Mul.evaluate` gives 0 for 0*inf.  `pow_` folds with
Python's `**`, which differs from `np.power` in the last bit on a few
percent of inputs; preset exponents such as 1/3 and 1/1.8 fold through
it, so switching would move report bytes.  Only its overflow, where `**`
raises, falls back to `np.power` and gives inf.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import OrderedDict
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvalDomainError, ParseError, RangeError

__all__ = [
    "Field", "Const", "Coord", "Add", "Mul", "Pow", "Unary", "SplineLeaf",
    "add", "mul", "pow_", "neg", "sub", "div", "log", "exp", "sin", "cos",
    "parse_field", "is_zero_field", "expand",
    "compile_fields", "compile_rk4_run", "eval_fields", "ZERO", "ONE",
]

_EXPAND_CAP = 50_000


class Field:
    """Base class; operators build canonicalized nodes."""

    __slots__ = ("_key", "free_vars", "__weakref__")

    def diff(self, var: str) -> "Field":
        raise NotImplementedError

    def evaluate(self, env):
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_field(other))

    def __radd__(self, other):
        return add(_as_field(other), self)

    def __sub__(self, other):
        return sub(self, _as_field(other))

    def __rsub__(self, other):
        return sub(_as_field(other), self)

    def __mul__(self, other):
        return mul(self, _as_field(other))

    def __rmul__(self, other):
        return mul(_as_field(other), self)

    def __truediv__(self, other):
        return div(self, _as_field(other))

    def __rtruediv__(self, other):
        return div(_as_field(other), self)

    def __pow__(self, other):
        return pow_(self, _as_field(other))

    def __neg__(self):
        return neg(self)

    def __eq__(self, other):
        return isinstance(other, Field) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<field {self}>"


def _as_field(x):
    if isinstance(x, Field):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Const(float(x))
    raise TypeError(f"cannot interpret {x!r} as a field")


class Const(Field):
    __slots__ = ("value",)

    def __init__(self, value):
        value = float(value)
        # one nan object, whatever its sign: equal constants have one value
        self.value = math.nan if math.isnan(value) else value
        self._key = (0, self.value)
        self.free_vars = frozenset()

    def diff(self, var):
        return ZERO

    def evaluate(self, env):
        return self.value

    def __str__(self):
        return _fmt_number(self.value)


class Coord(Field):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._key = (1, name)
        self.free_vars = frozenset((name,))

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalDomainError(f"unbound coordinate {self.name!r}") from None

    def __str__(self):
        return self.name


_spline_counter = itertools.count()


class SplineLeaf(Field):
    """Opaque interpolated function of one or two coordinates.

    Derivative leaves are interned per base so that mixed partials taken
    in either order are the *same* object; sums of the form
    d_x d_y f - d_y d_x f therefore cancel structurally, which keeps
    d(d(omega)) = 0 exact for forms with interpolated coefficients.  The
    interning table holds its leaves weakly: a leaf and its derivatives
    form no reference cycle, so a frame's spline data is freed with the
    frame, not at the next cyclic collection.  The evaluator answers
    ev(args, orders), which evaluate calls, and locate(args) and
    poly(block, offsets, orders), which compiled code calls (see
    compile_fields).
    """

    __slots__ = ("evaluator", "vars", "orders", "label", "_base_id", "_derived")

    def __init__(self, evaluator, vars, orders=None, label="spline",
                 _base_id=None):
        self.evaluator = evaluator
        self.vars = tuple(vars)
        self.orders = tuple(orders) if orders is not None else (0,) * len(self.vars)
        self.label = label
        self._base_id = next(_spline_counter) if _base_id is None else _base_id
        self._derived = weakref.WeakValueDictionary()
        self._key = (2, self._base_id, self.orders)
        self.free_vars = frozenset(self.vars)

    def diff(self, var):
        if var not in self.vars:
            return ZERO
        i = self.vars.index(var)
        orders = list(self.orders)
        orders[i] += 1
        orders = tuple(orders)
        leaf = self._derived.get(orders)
        if leaf is None:
            leaf = SplineLeaf(self.evaluator, self.vars, orders, self.label,
                              _base_id=self._base_id)
            leaf._derived = self._derived  # share the interning table
            self._derived[orders] = leaf
        return leaf

    def evaluate(self, env):
        args = [np.asarray(env[v], dtype=float) for v in self.vars]
        return self.evaluator.ev(args, self.orders)

    def __str__(self):
        tag = "".join(f"_d{v}{o}" if o else "" for v, o in zip(self.vars, self.orders))
        return f"{self.label}{tag}({', '.join(self.vars)})"


class Add(Field):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._key = (3,) + tuple(t._key for t in self.terms)
        self.free_vars = frozenset().union(*(t.free_vars for t in self.terms))

    def diff(self, var):
        return add(*(t.diff(var) for t in self.terms))

    def evaluate(self, env):
        out = self.terms[0].evaluate(env)
        for t in self.terms[1:]:
            out = out + t.evaluate(env)
        return out

    def __str__(self):
        parts = [str(self.terms[0])]
        for t in self.terms[1:]:
            s = str(t)
            parts.append(f"- {s[1:].lstrip()}" if s.startswith("-") else f"+ {s}")
        return " ".join(parts)


class Mul(Field):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)
        self._key = (4,) + tuple(f._key for f in self.factors)
        self.free_vars = frozenset().union(*(f.free_vars for f in self.factors))

    def diff(self, var):
        terms = []
        for i, f in enumerate(self.factors):
            df = f.diff(var)
            if df is ZERO or df == ZERO:
                continue
            rest = self.factors[:i] + (df,) + self.factors[i + 1:]
            terms.append(mul(*rest))
        return add(*terms) if terms else ZERO

    def evaluate(self, env):
        vals = [f.evaluate(env) for f in self.factors]
        zero_mask = False
        for v in vals:
            zero_mask = zero_mask | (np.asarray(v) == 0.0)
        with np.errstate(all="ignore"):
            out = vals[0]
            for v in vals[1:]:
                out = out * v
        # 0 * anything = 0, including 0 * inf: continuity guard for s*log(s)
        if np.any(zero_mask):
            out = np.where(zero_mask, 0.0, out)
            if out.ndim == 0:
                out = float(out)
        return out

    def __str__(self):
        if (isinstance(self.factors[0], Const) and self.factors[0].value == -1.0
                and len(self.factors) == 2):
            return f"-{_paren(self.factors[1], 20)}"
        return "*".join(_paren(f, 20) for f in self.factors)


class Pow(Field):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._key = (5, base._key, exponent._key)
        self.free_vars = base.free_vars | exponent.free_vars

    def diff(self, var):
        b, e = self.base, self.exponent
        db = b.diff(var)
        if isinstance(e, Const):
            if db == ZERO:
                return ZERO
            return mul(e, pow_(b, Const(e.value - 1.0)), db)
        de = e.diff(var)
        inner = add(mul(de, log(b)), mul(e, db, pow_(b, Const(-1.0))))
        return mul(self, inner)

    def evaluate(self, env):
        b = np.asarray(self.base.evaluate(env), dtype=float)
        e = self.exponent.evaluate(env)
        e_arr = np.asarray(e, dtype=float)
        integral = np.all(e_arr == np.round(e_arr))
        if not integral and np.any(b < 0.0):
            raise EvalDomainError("fractional power of a negative base")
        if np.any((b == 0.0) & (e_arr < 0.0)):
            raise EvalDomainError("zero base raised to a negative power")
        with np.errstate(all="ignore"):
            out = np.power(b, e_arr)
        return float(out) if out.ndim == 0 else out

    def __str__(self):
        # ^ is right-associative, so a power base needs parentheses
        return f"{_paren(self.base, 31)}^{_paren(self.exponent, 30)}"


class Unary(Field):
    """An elementary function applied to one field.

    `fn` is the function's row of `_FUNCTIONS`; the node keeps it, so
    evaluation looks nothing up.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg
        self._key = (fn.rank, arg._key)
        self.free_vars = arg.free_vars

    def diff(self, var):
        da = self.arg.diff(var)
        if da == ZERO:
            return ZERO
        return self.fn.derivative(self, da)

    def evaluate(self, env):
        a = np.asarray(self.arg.evaluate(env), dtype=float)
        if self.fn.domain_error is not None and np.any(a < 0.0):
            raise EvalDomainError(self.fn.domain_error)
        with np.errstate(all="ignore"):
            out = self.fn.ufunc(a)
        return float(out) if out.ndim == 0 else out

    def __str__(self):
        return f"{self.fn.name}({self.arg})"


class _Function(NamedTuple):
    """One elementary function: its name, its rank in the canonical
    operand order, its numpy ufunc, the message for a negative argument
    (None when every real argument is allowed) and its derivative rule
    d(node) = derivative(node, d(arg))."""

    name: str
    rank: int
    ufunc: np.ufunc
    domain_error: str | None
    derivative: Callable


_FUNCTIONS = {fn.name: fn for fn in (
    _Function("log", 6, np.log, "log of a negative value",
              lambda f, da: mul(da, pow_(f.arg, Const(-1.0)))),
    _Function("exp", 7, np.exp, None, lambda f, da: mul(f, da)),
    _Function("sin", 8, np.sin, None, lambda f, da: mul(cos(f.arg), da)),
    _Function("cos", 9, np.cos, None,
              lambda f, da: mul(Const(-1.0), sin(f.arg), da)),
)}


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# smart constructors


def add(*terms):
    """Canonical sum: flatten, fold constants, collect like terms."""
    const_acc = 0.0
    buckets = {}  # rest-key -> [coeff, rest-field]
    stack = list(terms)
    while stack:
        t = stack.pop(0)
        t = _as_field(t)
        if isinstance(t, Add):
            stack = list(t.terms) + stack
            continue
        if isinstance(t, Const):
            const_acc += t.value
            continue
        c, rest = _split_coeff(t)
        b = buckets.get(rest._key)
        if b is None:
            buckets[rest._key] = [c, rest]
        else:
            b[0] += c
    out = []
    for c, rest in sorted(buckets.values(), key=lambda b: b[1]._key):
        if c == 0.0:
            continue
        out.append(rest if c == 1.0 else mul(Const(c), rest))
    if const_acc != 0.0 or not out:
        out.insert(0, Const(const_acc))
    if len(out) == 1:
        return out[0]
    return Add(out)


def _split_coeff(f):
    """Split a field into (constant coefficient, remaining factor)."""
    if isinstance(f, Mul) and isinstance(f.factors[0], Const):
        rest = f.factors[1:]
        rest = rest[0] if len(rest) == 1 else Mul(rest)
        return f.factors[0].value, rest
    return 1.0, f


def mul(*factors):
    """Canonical product: flatten, fold constants, merge equal-base powers."""
    const_acc = 1.0
    powers = {}  # base-key -> [exponent-sum (float) or None, base, exp-field]
    order = []
    stack = list(factors)
    while stack:
        f = stack.pop(0)
        f = _as_field(f)
        if isinstance(f, Mul):
            stack = list(f.factors) + stack
            continue
        if isinstance(f, Const):
            if f.value == 0.0:
                return ZERO  # 0 * inf = 0, as Mul.evaluate has it
            const_acc *= f.value
            continue
        if isinstance(f, Pow) and isinstance(f.exponent, Const):
            base, e = f.base, f.exponent.value
        else:
            base, e = f, 1.0
        entry = powers.get(base._key)
        if entry is None:
            powers[base._key] = [e, base]
            order.append(base._key)
        else:
            entry[0] += e
    if const_acc == 0.0:
        return ZERO
    out = []
    for k in sorted(order):
        e, base = powers[k]
        if e == 0.0:
            continue
        out.append(base if e == 1.0 else Pow(base, Const(e)))
    if not out:
        return Const(const_acc)
    if const_acc != 1.0:
        out.insert(0, Const(const_acc))
    if len(out) == 1:
        return out[0]
    return Mul(out)


def _even_integer(c):
    return math.isfinite(c) and c == round(c) and int(round(c)) % 2 == 0


def pow_(base, exponent):
    base = _as_field(base)
    exponent = _as_field(exponent)
    if isinstance(exponent, Const):
        if exponent.value == 0.0:
            return ONE
        if exponent.value == 1.0:
            return base
        if isinstance(base, Const):
            b, e = base.value, exponent.value
            if b < 0.0 and e != np.round(e):  # round(nan) raises
                raise EvalDomainError("fractional power of a negative constant")
            if b == 0.0 and e < 0.0:
                raise EvalDomainError("zero constant raised to a negative power")
            try:
                return Const(b ** e)
            except OverflowError:
                with np.errstate(over="ignore"):
                    return Const(np.power(b, e))  # +-inf
        if isinstance(base, Pow) and isinstance(base.exponent, Const):
            c1, c2 = base.exponent.value, exponent.value
            # (b^c1)^c2 = b^(c1*c2) is wrong for even c1 with fractional c2
            # (it would drop the absolute value), so only fold safe cases
            if not (_even_integer(c1) and c2 != np.round(c2)):
                return pow_(base.base, Const(c1 * c2))
    return Pow(base, exponent)


def neg(f):
    return mul(Const(-1.0), _as_field(f))


def sub(a, b):
    return add(_as_field(a), neg(b))


def div(a, b):
    return mul(_as_field(a), pow_(b, Const(-1.0)))


def _apply(fn, f):
    """fn(f); a constant argument folds by evaluating the same node."""
    node = Unary(fn, _as_field(f))
    return Const(node.evaluate({})) if isinstance(node.arg, Const) else node


def log(f):
    return _apply(_FUNCTIONS["log"], f)


def exp(f):
    return _apply(_FUNCTIONS["exp"], f)


def sin(f):
    return _apply(_FUNCTIONS["sin"], f)


def cos(f):
    return _apply(_FUNCTIONS["cos"], f)


# ---------------------------------------------------------------------------
# expansion / structural zero test


def expand(f):
    """Rewrite into a collected sum of products (distributing over sums)."""
    f = _as_field(f)
    if isinstance(f, (Const, Coord, SplineLeaf)):
        return f
    if isinstance(f, Add):
        return add(*(expand(t) for t in f.terms))
    if isinstance(f, Mul):
        factor_sums = []
        size = 1
        for fac in f.factors:
            ef = expand(fac)
            terms = list(ef.terms) if isinstance(ef, Add) else [ef]
            size *= len(terms)
            if size > _EXPAND_CAP:
                raise EvalDomainError("expansion too large")
            factor_sums.append(terms)
        pieces = [mul(*combo) for combo in itertools.product(*factor_sums)]
        return add(*pieces)
    if isinstance(f, Pow):
        base = expand(f.base)
        e = f.exponent
        if (isinstance(e, Const) and 2 <= e.value <= 8
                and e.value == round(e.value) and isinstance(base, Add)):
            out = base
            for _ in range(int(e.value) - 1):
                out = expand(mul(out, base))
            return out
        return pow_(base, expand(e))
    if isinstance(f, Unary):
        return _apply(f.fn, expand(f.arg))
    raise TypeError(f"cannot expand {type(f).__name__}")


def is_zero_field(f):
    """True when the field is identically zero (after expansion)."""
    f = _as_field(f)
    if isinstance(f, Const):
        return f.value == 0.0
    g = expand(f)
    return isinstance(g, Const) and g.value == 0.0


# ---------------------------------------------------------------------------
# compiled evaluation

# LRUs by hand, not functools: a _COMPILED entry dies with its fields,
# and each store reads _CACHE_SIZE, which a test may shrink at run time
_CACHE_SIZE = 64
_COMPILED = OrderedDict()  # key -> (function, finalizers), LRU first
_CODE = OrderedDict()  # generated source -> its code object, LRU first
_CHAIN = 16  # operands per generated line of a long sum, product or mask


def compile_fields(fields, coords):
    """One numpy function evaluating a field list at points.

    fields is a list of fields or a list of equal-length lists (struct
    shape (k,) or (r, c)); the function maps points (..., d), one column
    per name of coords, to values (..., *struct), bit for bit what
    Field.evaluate gives.

    The source is generated once per function and run as code: each
    distinct _key becomes one statement in evaluation order, so a shared
    subexpression is computed once; a node without free coordinates is
    folded at compile time by Field.evaluate itself.  Operand order,
    the ufuncs and the 0*inf guard of Mul are those of the reference,
    and every domain check that depends on data stays a per-call check
    with the reference's EvalDomainError text; a check on a constant
    exponent is decided here.  A spline leaf reads its evaluator through
    two statements: one locate(columns), where the first leaf over that
    evaluator and coordinates comes, which checks the domain (with the
    reference's text), clips and finds the points' cells, and one
    poly(block, offsets, orders) per partial, which every leaf over that
    evaluator shares whatever its label or base; so the partials of one
    spline share one cell search, and equal leaves one value.  Mul, Pow
    and Unary statements that follow each other share one
    np.errstate(all="ignore") block; Add and spline statements stay
    outside, as in the reference, so an array inf + -inf still warns,
    and a list without ops enters no block.

    Two caches of _CACHE_SIZE entries each, least recently used out,
    stand between a call and compile().  The first holds functions,
    keyed on the identity of the field objects.  An entry lives only
    while all of its fields do, so an id is never reused while cached,
    and a list built for one task (a mollified frame and its spline
    data) is freed with its owner.  Owners that pass the same field
    objects, such as frames, forms and distributions, hit it on every
    call.  Behind it, _Source.define keeps code objects keyed on the
    generated source text: new fields of a structure seen before, such
    as the spline leaves of a new frame of the same example, generate
    the same text, and their function is that code run in a namespace
    of its own, which binds the new evaluators and constants.  A code
    object holds no evaluator, so this cache keeps no field's data
    alive.
    """
    flat, struct = _flatten(fields)
    coords = tuple(coords)
    key = (tuple(map(id, flat)), struct, coords)
    return _cached(key) or _store(key, flat,
                                  _Source(coords).function(flat, struct))


def compile_rk4_run(fields, coords, variational=False):
    """One generated RK4 run for the flow of sum_c fields[c] d/dc.

    run(z, steps, step, bounds) advances the state z (n, d), or (n, 2d)
    as z = [x | Y] when variational carries the vector Y by
    dY/dt = DX(x) Y, in place through up to `steps` RK4 steps of the
    per-row step (n, 1), and returns (done, err, out): the steps it
    completed, with z left at the last of them; the EvalDomainError a
    stage raised in step done + 1, or None; and, when bounds = (lo, hi),
    two arrays of d floats, is given and step done left the box
    lo <= x <= hi, the boolean mask of the rows outside it, or None.  It
    stops at a stage that raises, with z as that step found it, or after
    a step that leaves the box.  With bounds None there is no box test,
    so a nan row runs on.

    Both loops are generated from one statement list, that of
    compile_fields for the fields (and, with variational, their partials
    along coords), and run dispatches on n:

    * rows, for n > 1, steps arrays.  Each call allocates its scratch
      once: the stage velocities k1..k4 (n, width), with variational the
      Jacobian J (n, d, d) and the product T (n, d, d), the constant
      columns and entries filled once; one stage-point and one sum
      scratch; h, half = 0.5*h and sixth = h/6.0 broadcast to the
      state's width; and with bounds, lo and hi broadcast to (n, d) and
      the mask of the box test.  The four stages are written inline:
      each reads its point's columns, runs the statements, and writes
      the velocity columns.  The carried part is T = J*Y[:, None, :],
      then (T[..., 0] + T[..., 1]) + T[..., 2] ..., d ufunc calls, so
      each row of J.Y sums in column order; a matmul's bits would depend
      on the BLAS kernel.  The stage points are z + half*k1, z + half*k2
      and z + h*k3 and the new state is z + sixth*(((k1 + 2.0*k2) +
      2.0*k3) + k4), each operation a ufunc with out=, in that order,
      the operations of an RK4 step on x and on Y taken separately,
      element for element, so every bit is theirs.  No constant is folded
      in that arithmetic: x + h*0.0 is not x when x is -0.0, and 0.0*Y is
      not 0 when Y is inf.  It stays outside np.errstate, as Add
      statements do, so its warnings still fire.
    * one, for n = 1, steps the row as Python floats: the same operations
      in the same order, +, - and * on floats with Mul's guard (0.0 where
      a factor == 0.0), and Pow, Unary and spline statements calling the
      same ufunc, locate or poly on the float, whose bits are those of an
      array row.  The loop runs inside one np.errstate(all="ignore"), so its
      floats warn of nothing.  Hand-off rule: rows owns the edges.  From
      the first step whose statements raise EvalDomainError, or that
      makes a non-finite statement value, stage-point x column or new
      state, one call of rows outside the errstate takes the remaining
      steps, with rows' bits, error texts and warnings.  Every value rows
      computes outside np.errstate is one of those or feeds the new
      state through + and *, which keep a non-finite value non-finite, so
      a step taken on floats warns of nothing on arrays either.

    The run is cached like compile_fields' functions, under the same
    field identities with a step tag, and is compiled only when a flow
    asks for it; the partials are taken only then, so a cached run costs
    no symbolic derivative.
    """
    flat, struct = _flatten(fields)
    coords = tuple(coords)
    key = (tuple(map(id, flat)), struct, coords, "rk4", variational)
    return _cached(key) or _store(key, flat, _Source(coords).rk4_run(
        [flat] + ([[f.diff(c) for f in flat for c in coords]] if variational
                  else [])))


def eval_fields(fields, coords, points):
    """Evaluate a list of fields, or a list of equal-length lists, at
    points (..., d) over coords: shape (..., *struct), e.g. a matrix of
    fields over N points gives (N, r, c), and points of another width
    than len(coords) are a RangeError.  Runs compile_fields(fields,
    coords), compiling the list on its first evaluation."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if points.shape[-1] != len(coords):
        raise RangeError(f"points over {tuple(coords)} need {len(coords)} "
                         f"coordinates, got {points.shape[-1]}")
    return compile_fields(fields, coords)(points)


def _cached(key):
    entry = _COMPILED.get(key)
    if entry is None:
        return None
    _COMPILED.move_to_end(key)
    return entry[0]


def _store(key, flat, fn):
    """Cache fn under key for as long as every field of flat lives."""
    finalizers = []
    for f in {id(f): f for f in flat}.values():
        fin = weakref.finalize(f, _drop, key)
        fin.atexit = False
        finalizers.append(fin)
    _COMPILED[key] = (fn, finalizers)
    while len(_COMPILED) > _CACHE_SIZE:
        _drop(next(iter(_COMPILED)))
    return fn


def _drop(key):
    """Remove an entry, when evicted or when one of its fields dies, and
    the finalizers still watching its other fields."""
    entry = _COMPILED.pop(key, None)
    if entry is not None:
        for fin in entry[1]:
            fin.detach()


def _flatten(fields):
    flat, struct = list(fields), (len(fields),)
    while flat and isinstance(flat[0], (list, tuple)):
        struct += (len(flat[0]),)
        flat = [f for row in flat for f in row]
    return flat, struct


class _Source:
    """Generated source of one compiled function: the coordinate columns
    it loads, its statements (each flagged when it belongs in an errstate
    block, and written for arrays and for floats) and the names it
    binds."""

    def __init__(self, coords):
        self.coords = coords
        self.ns = {"_E": EvalDomainError, "_asarray": np.asarray,
                   "_empty": np.empty, "_ones": np.ones, "_where": np.where,
                   "_power": np.power, "_round": np.round,
                   "_count": np.count_nonzero, "_prod": math.prod,
                   "_errstate": np.errstate,
                   "_multiply": np.multiply, "_add": np.add,
                   "_greater_equal": np.greater_equal,
                   "_less_equal": np.less_equal}
        self.loads = {}  # coordinate index -> column name
        self.body = []  # (in errstate, array statement, float statement)
        self.values = []  # the names the statements assign, in order
        self.names = {}  # _key -> operand text
        self.known = {}  # literal operand text -> its value
        self.located = {}  # (evaluator id, coordinates) -> (name, results)
        self.partials = {}  # (evaluator id, coordinates, orders) -> value
        self.ids = itertools.count()

    def emit(self, guarded, statement, scalar=None):
        """Append a statement, with its form on floats when that differs
        ("" when floats need none)."""
        self.body.append((guarded, statement,
                          statement if scalar is None else scalar))

    def bind(self, value, prefix):
        name = f"{prefix}{len(self.ns)}"
        self.ns[name] = value
        return name

    def literal(self, value):
        value = float(value)
        text = f"({value!r})" if math.isfinite(value) else \
            self.bind(value, "_c")
        self.known[text] = value
        return text

    def raise_(self, message):
        self.emit(False, f"raise _E({message!r})")
        return "None"  # the statements after a raise never run

    def check(self, parts, message):
        """Raise EvalDomainError(message) when every part holds; a part is
        a bool decided now or a test, source text that reads a mask on
        arrays and a bool on floats, made per call."""
        if False in parts:
            return
        tests = [t for t in parts if t is not True]
        stmt = f"raise _E({message!r})"
        if not tests:
            self.emit(True, stmt)
            return
        self.emit(True, f"if {' and '.join(f'_count({t})' for t in tests)}:"
                        f" {stmt}",
                  f"if {' and '.join(f'({t})' for t in tests)}: {stmt}")

    def load(self, name):
        i = self.coords.index(name)
        return self.loads.setdefault(i, f"x{i}")

    def operand(self, f):
        """Source text of f's value, emitting each distinct node once."""
        if isinstance(f, Const):
            return self.literal(f.value)
        text = self.names.get(f._key)
        if text is None:
            text = self.names[f._key] = self.node(f)
        return text

    def node(self, f):
        if not f.free_vars:
            try:
                return self.literal(f.evaluate({}))
            except EvalDomainError as err:
                return self.raise_(str(err))
        if isinstance(f, Coord):
            if f.name not in self.coords:
                return self.raise_(f"unbound coordinate {f.name!r}")
            return self.load(f.name)
        if isinstance(f, SplineLeaf):
            return self.spline(f)
        v = f"v{next(self.ids)}"
        if isinstance(f, Add):
            ops = [self.operand(t) for t in f.terms]
            for s in _chain(v, "+", ops):
                self.emit(False, s)
        elif isinstance(f, Mul):
            ops = [self.operand(g) for g in f.factors]
            if any(self.known.get(op) == 0.0 for op in ops):
                return self.literal(0.0)
            # 0 * anything = 0, including 0 * inf, as in Mul.evaluate
            zeros = [f"({op} == 0.0)" for op in ops if op not in self.known]
            for s in _chain(v, "*", ops):
                self.emit(True, s)
            for s in _chain("zero", "|", zeros):
                self.emit(True, s, "")
            self.emit(True, f"if _count(zero): {v} = _where(zero, 0.0, {v})",
                      f"if {' or '.join(zeros)}: {v} = 0.0")
        elif isinstance(f, Pow):
            self.power(v, f)
        else:  # Unary
            a = self.operand(f.arg)
            if f.fn.domain_error is not None:
                self.check([f"{a} < 0.0"], f.fn.domain_error)
            u = f"_{f.fn.name}"
            self.ns[u] = f.fn.ufunc
            self.emit(True, f"{v} = {u}({a})", f"{v} = float({u}({a}))")
        self.values.append(v)
        return v

    def spline(self, f):
        """A spline leaf's statement: one locate per evaluator and
        coordinates, where the first such leaf comes, and one poly per
        partial, which every leaf over that evaluator and coordinates
        shares whatever its label or base."""
        key = (id(f.evaluator), f.vars)
        v = self.partials.get(key + (f.orders,))
        if v is not None:
            return v
        if key not in self.located:
            s = self.bind(f.evaluator, "_s")
            at = f"b{len(self.located)}, o{len(self.located)}"
            self.located[key] = (s, at)
            self.emit(False, f"{at} = {s}.locate("
                             f"[{', '.join(self.load(n) for n in f.vars)}])")
        s, at = self.located[key]
        v = self.partials[key + (f.orders,)] = f"v{next(self.ids)}"
        call = f"{s}.poly({at}, {f.orders!r})"
        self.emit(False, f"{v} = _asarray({call}, dtype=float)",
                  f"{v} = {call}")
        self.values.append(v)
        return v

    def power(self, v, f):
        """Pow.evaluate's two domain checks, then np.power.  A base that is
        a power with a constant even integer exponent is >= 0, inf or nan,
        so it takes no sign check."""
        b, e = self.operand(f.base), self.operand(f.exponent)
        kb, ke = self.known.get(b), self.known.get(e)
        b_known, e_known = b in self.known, e in self.known
        even = (isinstance(f.base, Pow) and isinstance(f.base.exponent, Const)
                and _even_integer(f.base.exponent.value))
        self.check([
            not bool(np.round(ke) == ke) if e_known
            else f"{e} != _round({e})",
            not even and (bool(kb < 0.0) if b_known else f"{b} < 0.0"),
        ], "fractional power of a negative base")
        self.check([
            bool(kb == 0.0) if b_known else f"{b} == 0.0",
            bool(ke < 0.0) if e_known else f"{e} < 0.0",
        ] if b_known or e_known else
            [f"({b} == 0.0) & ({e} < 0.0)"],
            "zero base raised to a negative power")
        self.emit(True, f"{v} = _power({b}, {e})",
                  f"{v} = float(_power({b}, {e}))")

    def statements(self):
        """The body as function lines on arrays: statements flagged for
        errstate that follow each other share one np.errstate(all=
        "ignore") block."""
        lines, block = [], False
        for guarded, stmt, _ in self.body:
            if guarded and not block:
                lines.append("    with _errstate(all='ignore'):")
            block = guarded
            lines.append(("        " if guarded else "    ") + stmt)
        return lines

    def define(self, lines, *names):
        """Run the generated lines and take the functions they define out
        of the namespace, so none holds a cycle through its globals.  The
        lines are compiled once per distinct text while it stays among
        the _CACHE_SIZE most recently defined."""
        source = "\n".join(lines)
        code = _CODE.get(source)
        if code is None:
            code = _CODE[source] = compile(source, "<compiled fields>", "exec")
            while len(_CODE) > _CACHE_SIZE:
                _CODE.popitem(last=False)
        else:
            _CODE.move_to_end(source)
        exec(code, self.ns)
        functions = tuple(self.ns.pop(name) for name in names)
        return functions[0] if len(functions) == 1 else functions

    def constants(self, ops, shape):
        """The constant entries of ops as one bound array of shape, zero
        where an entry varies; None when every entry varies."""
        if not any(op in self.known for op in ops):
            return None
        return self.bind(np.array([self.known.get(op, 0.0) for op in ops])
                         .reshape(shape), "_t")

    def function(self, flat, struct):
        ops = [self.operand(f) for f in flat]
        lines = ["def compiled(points):",
                 "    p = _asarray(points, dtype=float)",
                 "    lead = p.shape[:-1]",
                 "    n = _prod(lead)",
                 f"    p = p.reshape(n, {len(self.coords)})"]
        lines += [f"    {name} = p[:, {i}]"
                  for i, name in sorted(self.loads.items())]
        lines += self.statements()
        lines.append(f"    out = _empty((n, {len(ops)}))")
        row = self.constants(ops, len(ops))
        if row is not None:
            lines.append(f"    out[:] = {row}")
        lines += [f"    out[:, {j}] = {op}" for j, op in enumerate(ops)
                  if op not in self.known]
        lines.append(f"    return out.reshape(lead + {struct!r})")
        return self.define(lines, "compiled")

    def rk4_run(self, outputs):
        """compile_rk4_run's run over the field list outputs[0] and, when
        given, its partials outputs[1]: two loops generated from the one
        statement list, rows for a batch and one for a single row, and
        the dispatch between them."""
        cols = [[self.operand(f) for f in flat] for flat in outputs]
        rows, one = self.define(self.rows_loop(cols) + self.one_loop(cols),
                                "rows", "one")

        def run(z, steps, step, bounds):
            if len(z) == 1:
                return one(z, steps, step, bounds, rows)
            return rows(z, steps, step, bounds)
        return run

    def rows_loop(self, cols):
        """The loop on arrays: its scratch allocated once per call, then
        the statements once per stage, over z in stage 1 and the stage
        point za after it.  Every view the loop reads or writes is taken
        once per call."""
        d = len(self.coords)
        variational = len(cols) == 2
        width = d * len(cols)
        velocity = self.constants(cols[0], d)
        lines = ["def rows(z, steps, step, bounds):", "    n = len(z)"]
        for k in ("k1", "k2", "k3", "k4"):
            lines.append(f"    {k} = _empty((n, {width}))")
            if velocity is not None:
                lines.append(f"    {k}[:, :{d}] = {velocity}")
        if variational:
            lines.append(f"    J = _empty((n, {d}, {d}))")
            jac = self.constants(cols[1], (d, d))
            if jac is not None:
                lines.append(f"    J[:] = {jac}")
            if d > 1:
                lines.append(f"    T = _empty((n, {d}, {d}))")
        lines += [f"    za = _empty((n, {width}))",
                  f"    acc = _empty((n, {width}))",
                  f"    h = _empty((n, {width}))",
                  "    h[:] = step",
                  "    half = 0.5 * h",
                  "    sixth = h / 6.0",
                  "    if bounds is not None:",
                  f"        lo = _empty((n, {d}))",
                  "        lo[:] = bounds[0]",
                  f"        hi = _empty((n, {d}))",
                  "        hi[:] = bounds[1]",
                  f"        inside = _empty((n, {d}), dtype=bool)",
                  f"    zx = z[:, :{d}]"]

        views = {}  # source text of a view -> its name, taken once per call

        def view(text):
            return views.setdefault(text, f"u{len(views)}")

        stage, body = [line[4:] for line in self.statements()], []
        for k, src, point in (("k1", "z", None), ("k2", "za", "half, k1"),
                              ("k3", "za", "half, k2"), ("k4", "za", "h, k3")):
            if point is not None:
                body += [f"_multiply({point}, out=za)", "_add(z, za, out=za)"]
            body += [f"{name} = {view(f'{src}[:, {i}]')}"
                     for i, name in sorted(self.loads.items())]
            body += stage
            body += [f"{view(f'{k}[:, {j}]')}[...] = {op}"
                     for j, op in enumerate(cols[0]) if op not in self.known]
            if not variational:
                continue
            body += [f"{view(f'J[:, {j // d}, {j % d}]')}[...] = {op}"
                     for j, op in enumerate(cols[1]) if op not in self.known]
            # J.Y as T = J*Y then (T[.., 0] + T[.., 1]) + ..., in order
            carried = view(f"{k}[:, {d}:]")
            ys = view(f"{src}[:, None, {d}:]")
            if d == 1:
                body.append(f"_multiply(J, {ys}, out="
                            f"{view(f'{k}[:, {d}:, None]')})")
                continue
            terms = [view(f"T[:, :, {j}]") for j in range(d)]
            body.append(f"_multiply(J, {ys}, out=T)")
            body.append(f"_add({terms[0]}, {terms[1]}, out={carried})")
            body += [f"_add({carried}, {t}, out={carried})"
                     for t in terms[2:]]
        lines += [f"    {name} = {text}" for text, name in views.items()]
        lines += ["    for k in range(steps):", "        try:"]
        lines += ["            " + line for line in body]
        lines += ["        except _E as err:",
                  "            return k, err, None",
                  "        _multiply(2.0, k2, out=acc)",
                  "        _add(k1, acc, out=acc)",
                  "        _multiply(2.0, k3, out=za)",
                  "        _add(acc, za, out=acc)",
                  "        _add(acc, k4, out=acc)",
                  "        _multiply(sixth, acc, out=acc)",
                  "        _add(z, acc, out=z)",
                  "        if bounds is not None:",
                  "            _greater_equal(zx, lo, out=inside)",
                  "            if _count(inside) == inside.size:",
                  "                _less_equal(zx, hi, out=inside)",
                  "            if _count(inside) < inside.size:",
                  "                return k + 1, None, ~((zx >= lo) & "
                  "(zx <= hi)).all(1)",
                  "    return steps, None, None"]
        return lines

    def one_loop(self, cols):
        """The loop on one row as Python floats: state z0.., stage point
        p0.. and velocities k1_0.. (a constant column is its literal), the
        float form of each statement, and per stage one sum c1.. of the
        stage point's x columns and the statement values.  From the first
        step whose statements raise, or whose sums or new state w0.. are
        not finite, rows takes the steps, outside the loop's errstate."""
        d = len(self.coords)
        width = d * len(cols)
        state = [f"z{i}" for i in range(width)]
        new = [f"w{i}" for i in range(width)]

        def velocity(s, i):
            op = cols[0][i] if i < d else None
            return op if op in self.known else f"k{s}_{i}"

        def names(items):
            return ", ".join(items) + ("," if len(items) == 1 else "")

        stage = [s for _, _, s in self.body if s]
        body, checks = [], []
        for s, scale in enumerate((None, "half", "half", "h"), 1):
            point = state
            if scale is not None:
                point = [f"p{i}" for i in range(width)]
                body += [f"p{i} = z{i} + {scale} * {velocity(s - 1, i)}"
                         for i in range(width)]
            body += [f"{name} = {point[i]}"
                     for i, name in sorted(self.loads.items())]
            body += stage
            body += [f"k{s}_{j} = {op}" for j, op in enumerate(cols[0])
                     if op not in self.known]
            if len(cols) == 2:  # J.Y, each row summed in column order
                body += [f"k{s}_{d + i} = " + " + ".join(
                    f"{cols[1][i * d + j]} * {point[d + j]}"
                    for j in range(d)) for i in range(d)]
            parts = (point[:d] if scale is not None else []) + self.values
            if parts:
                body += _chain(f"c{s}", "+", parts)
                checks.append(f"c{s}")
        step_end = [f"w{i} = z{i} + sixth * ((({velocity(1, i)} + 2.0 * "
                    f"{velocity(2, i)}) + 2.0 * {velocity(3, i)}) + "
                    f"{velocity(4, i)})" for i in range(width)]
        step_end += _chain("c", "+", checks + new)
        inside = " and ".join(f"lo{i} <= z{i} <= hi{i}" for i in range(d))
        lines = ["def one(z, steps, step, bounds, rows):",
                 "    h = step.item()",
                 "    half = 0.5 * h",
                 "    sixth = h / 6.0",
                 "    boxed = bounds is not None",
                 "    if boxed:",
                 f"        {names([f'lo{i}' for i in range(d)])} = "
                 "bounds[0].tolist()",
                 f"        {names([f'hi{i}' for i in range(d)])} = "
                 "bounds[1].tolist()",
                 f"    {names(state)} = z[0].tolist()",
                 "    k = 0",
                 "    with _errstate(all='ignore'):",
                 "        while k < steps:",
                 "            try:"]
        lines += ["                " + line for line in body]
        lines += ["            except _E:",
                  "                break"]
        lines += ["            " + line for line in step_end]
        lines += ["            if c - c != 0.0:",
                  "                break",
                  f"            {names(state)} = {names(new)}",
                  "            k += 1",
                  f"            if boxed and not ({inside}):",
                  f"                z[0] = {names(state)}",
                  "                return k, None, _ones(1, dtype=bool)",
                  f"    z[0] = {names(state)}",
                  "    if k == steps:",
                  "        return k, None, None",
                  "    done, err, out = rows(z, steps - k, step, bounds)",
                  "    return k + done, err, out"]
        return lines


def _chain(target, op, operands):
    """target = operands joined by op, left to right, in lines of at most
    _CHAIN operands so a long sum does not nest the parser too deep."""
    lines, head = [], operands[:_CHAIN]
    lines.append(f"{target} = {f' {op} '.join(head)}")
    for i in range(_CHAIN, len(operands), _CHAIN - 1):
        rest = operands[i:i + _CHAIN - 1]
        lines.append(f"{target} = {f' {op} '.join([target] + rest)}")
    return lines


# ---------------------------------------------------------------------------
# parsing and printing

def _fmt_number(v):
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _precedence(f):
    if isinstance(f, Add):
        return 10
    if isinstance(f, Mul):
        return 20
    if isinstance(f, Pow):
        return 30
    if isinstance(f, Const) and (f.value < 0 or f.value == math.inf):
        return 15
    return 100


def _paren(f, parent_prec):
    s = str(f)
    return f"({s})" if _precedence(f) < parent_prec else s


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^(),":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and t[i + 1].isdigit()):
                j = i
                while j < n and (t[j].isdigit() or t[j] == "."):
                    j += 1
                if j < n and t[j] in "eE":
                    k = j + 1
                    if k < n and t[k] in "+-":
                        k += 1
                    if k < n and t[k].isdigit():
                        j = k
                        while j < n and t[j].isdigit():
                            j += 1
                self.tokens.append(("num", t[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("ident", t[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {c!r}", i)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse_field(text):
    """Parse an expression over named coordinates into a Field.

    Grammar: numbers, identifiers, + - * / ^ (right-assoc), parentheses,
    and the functions log, exp, sin, cos.  The identifiers inf and nan are
    the non-finite constants, as printing writes them; any other
    identifier is a coordinate name.
    """
    tz = _Tokenizer(text)
    f = _parse_sum(tz)
    kind, val, pos = tz.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    return f


def _parse_sum(tz):
    f = _parse_term(tz)
    while True:
        kind, _, _ = tz.peek()
        if kind == "+":
            tz.next()
            f = add(f, _parse_term(tz))
        elif kind == "-":
            tz.next()
            f = sub(f, _parse_term(tz))
        else:
            return f


def _parse_term(tz):
    f = _parse_unary(tz)
    while True:
        kind, _, _ = tz.peek()
        if kind == "*":
            tz.next()
            f = mul(f, _parse_unary(tz))
        elif kind == "/":
            tz.next()
            f = div(f, _parse_unary(tz))
        else:
            return f


def _parse_unary(tz):
    kind, _, _ = tz.peek()
    if kind == "-":
        tz.next()
        return neg(_parse_unary(tz))
    if kind == "+":
        tz.next()
        return _parse_unary(tz)
    return _parse_power(tz)


def _parse_power(tz):
    base = _parse_atom(tz)
    kind, _, _ = tz.peek()
    if kind == "^":
        tz.next()
        return pow_(base, _parse_unary(tz))
    return base


def _parse_atom(tz):
    kind, val, pos = tz.next()
    if kind == "num":
        try:
            return Const(float(val))
        except ValueError:
            raise ParseError(f"malformed number {val!r}", pos) from None
    if kind == "ident":
        nkind, _, _ = tz.peek()
        if nkind == "(":
            if val not in _FUNCTIONS:
                raise ParseError(f"unknown function {val!r}", pos)
            tz.next()
            arg = _parse_sum(tz)
            ckind, cval, cpos = tz.next()
            if ckind != ")":
                raise ParseError(f"expected ')', got {cval!r}", cpos)
            return _apply(_FUNCTIONS[val], arg)
        if val in ("inf", "nan"):
            return Const(float(val))
        return Coord(val)
    if kind == "(":
        f = _parse_sum(tz)
        ckind, cval, cpos = tz.next()
        if ckind != ")":
            raise ParseError(f"expected ')', got {cval!r}", cpos)
        return f
    raise ParseError(f"unexpected token {val!r}", pos)

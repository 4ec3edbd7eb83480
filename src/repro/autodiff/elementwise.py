"""The elementwise primitive table: each op is declared once, here.

An :class:`Elementwise` entry holds one elementwise primitive's public
signature and docstring, its forward, each operand's VJP and its batching
class.  Everything else about the op is derived from the entry:

- :mod:`repro.autodiff.ops` builds the public ``ops.<name>`` function —
  the eager forward, one VJP closure per operand and the forward-replay
  closure;
- :mod:`repro.autodiff.codegen` emits the same forward and VJPs, in
  place, into a compiled program;
- :mod:`repro.autodiff.lowering` reads which values the backward needs
  (:attr:`Elementwise.reads_out`, :attr:`Elementwise.reads_args`) off the
  symbols the VJPs name, so a read-set cannot disagree with the code;
- :mod:`repro.autodiff.batching` registers the rule of the entry's
  batching class.

This module holds the table and the string helpers that read it, and
imports nothing from the package, so all four can import it.

Notation
--------
Forwards and VJPs are written over symbols: ``x`` and ``y`` are the
operand values (the parameters ``a`` and ``b``), ``out`` the op's output,
``g`` the incoming cotangent, ``mask`` the constant condition of
``where`` (its parameter ``cond``), and every other name is a static
parameter (``lo``, ``hi``) or an auxiliary buffer (``mask``,
``notmask``).

A *step chain* is a tuple of steps ``(ufunc, operand, ...)``.  The operand
``"__"`` is the previous step's result; any other operand is a Python
expression over the symbols, usually one symbol or a literal.  Compiled,
each step is ``np.<ufunc>(..., out=buf)`` into one buffer; eager, the
steps nest into one allocating expression.  Both run the same ufuncs on
the same operands in the same order, so the tiers agree bitwise.  A rule
may instead be an *expression* string, evaluated as written by both
tiers (allocating): the cases whose order of operations no in-place chain
reproduces.  The expression ``"g"`` is the identity VJP.

``aux`` buffers are value-dependent masks: the forward computes them
after ``out`` and refreshes them on every replay, so the VJPs that read
them stay current.  Adding a primitive is one entry here plus one row in
the conformance table (``tests/conftest.py``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Tuple, Union

__all__ = [
    "ELEMENTWISE",
    "Elementwise",
    "IDENTITY",
    "NEGATE",
    "Rule",
    "Step",
    "bind",
    "call",
    "in_place",
    "nest",
    "symbols",
]

#: A step ``(ufunc, operand, ...)``; a chain is a tuple of them.
Step = Tuple[str, ...]
#: A forward or VJP: an in-place step chain, or an allocating expression.
Rule = Union[str, Tuple[Step, ...]]

#: The VJP that forwards the cotangent unchanged.
IDENTITY = "g"
#: The VJP that negates it.
NEGATE: Tuple[Step, ...] = (("negative", "g"),)

# Public parameter -> the symbol it binds: the operands and the ``where``
# condition.  Any other parameter is a static under its own name.
_BINDS = {"a": "x", "b": "y", "cond": "mask"}

_IDENT = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_SYMBOLS = frozenset({"g", "x", "y", "out", "mask", "notmask", "lo", "hi"})


def symbols(rule: Rule) -> FrozenSet[str]:
    """The symbols a forward, VJP or aux rule reads."""
    exprs = [rule] if isinstance(rule, str) else [o for st in rule for o in st[1:]]
    return frozenset(
        name for e in exprs for name in _IDENT.findall(e) if name in _SYMBOLS
    )


def bind(rule: Rule, resolve: Callable[[str], str]) -> Rule:
    """``rule`` with every symbol replaced by ``resolve(symbol)``, resolved
    in order of appearance."""
    def sub(expr: str) -> str:
        return _IDENT.sub(
            lambda m: resolve(m[0]) if m[0] in _SYMBOLS else m[0], expr
        )

    if isinstance(rule, str):
        return sub(rule)
    return tuple(
        (st[0], *(o if o == "__" else sub(o) for o in st[1:])) for st in rule
    )


def call(step: Step, prev: str, out: str = "") -> str:
    """``np.<ufunc>(...)`` for one step, ``"__"`` bound to ``prev``,
    written into ``out`` when given."""
    uf, *operands = step
    args = [prev if o == "__" else o for o in operands]
    if out:
        args.append(f"out={out}")
    return f"np.{uf}({', '.join(args)})"


def nest(chain: Tuple[Step, ...]) -> str:
    """A step chain as one allocating expression (the eager form)."""
    expr = ""
    for st in chain:
        expr = call(st, expr)
    return expr


def in_place(chain: Tuple[Step, ...], out: str) -> List[str]:
    """A step chain as statements that each write ``out`` in place."""
    return [call(st, out, out) for st in chain]


@dataclass(frozen=True)
class Elementwise:
    """One elementwise primitive (see the module docstring).

    ``params`` is the public signature; ``vjp[k]`` is the VJP for operand
    ``k`` (``x``, then ``y``); ``batch`` is ``"unary"``, ``"binary"`` or
    ``"where"``.  ``eager_only`` lists operand slots whose VJP runs on the
    eager tape only: a node differentiated in one stays opaque to the
    compiled tier.  ``py_name`` is the ``ops`` attribute when it differs
    from the primitive name.
    """

    name: str
    params: Tuple[str, ...]
    fwd: Rule
    vjp: Tuple[Rule, ...]
    batch: str
    doc: str
    aux: Tuple[Tuple[str, Tuple[Step, ...]], ...] = ()
    eager_only: Tuple[int, ...] = ()
    py_name: str = ""
    #: Derived: some VJP reads the op's own output buffer.
    reads_out: bool = field(init=False)
    #: Derived: ``reads_args[k]`` = operand positions whose values the
    #: VJP for operand ``k`` reads.
    reads_args: Tuple[Tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.py_name:
            object.__setattr__(self, "py_name", self.name)
        reads = [symbols(v) for v in self.vjp]
        object.__setattr__(self, "reads_out", any("out" in r for r in reads))
        object.__setattr__(self, "reads_args", tuple(
            tuple(k for k, s in enumerate(self.operands) if s in r) for r in reads
        ))

    @property
    def operands(self) -> Tuple[str, ...]:
        """The operand symbols, in argument order (``("x",)`` or ``("x", "y")``)."""
        return tuple(_BINDS[p] for p in self.params if p in ("a", "b"))

    @property
    def statics(self) -> Tuple[str, ...]:
        """Static scalar parameters (``clip``'s bounds)."""
        return tuple(p for p in self.params if p not in _BINDS)


def _unary(name, ufunc, vjp, doc, **kw) -> Elementwise:
    return Elementwise(name, ("a",), ((ufunc, "x"),), (vjp,), "unary", doc, **kw)


def _binary(name, ufunc, vjp_a, vjp_b, doc, **kw) -> Elementwise:
    return Elementwise(
        name, ("a", "b"), ((ufunc, "x", "y"),), (vjp_a, vjp_b), "binary", doc, **kw
    )


_SELECTION_DOC = "Elementwise {}; ties route the gradient to the first input."

#: Every tabled elementwise primitive, by name, in registration order.
ELEMENTWISE: Dict[str, Elementwise] = {e.name: e for e in [
    _binary("add", "add", IDENTITY, IDENTITY,
            "Elementwise ``a + b`` with NumPy broadcasting."),
    _binary("sub", "subtract", IDENTITY, NEGATE, "Elementwise ``a - b``."),
    _binary("mul", "multiply",
            (("multiply", "g", "y"),), (("multiply", "g", "x"),),
            "Elementwise ``a * b``."),
    _binary("div", "divide",
            (("divide", "g", "y"),),
            (("negative", "g"), ("multiply", "__", "x"), ("divide", "__", "(y * y)")),
            "Elementwise ``a / b``."),
    _unary("neg", "negative", NEGATE, "Elementwise negation."),
    _binary(
        "power", "power",
        "g * y * x ** (y - 1.0)",
        "g * (x ** y) * np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), 0.0)",
        """Elementwise ``a ** b`` differentiable in both arguments.

    The exponent VJP uses ``log(a)`` and is therefore only valid for
    positive bases when the exponent requires gradients; for the common
    constant-exponent case (e.g. the cubic polyharmonic kernel ``r**3``)
    only the base branch is recorded.
    """,
        eager_only=(1,),
    ),
    Elementwise(
        "square", ("a",), (("multiply", "x", "x"),),
        ((("multiply", "2.0", "g"), ("multiply", "__", "x")),),
        "unary", "Elementwise square (faster than ``power(a, 2)``).",
    ),
    _unary("sqrt", "sqrt", "g * 0.5 / np.where(out > 0, out, np.inf)",
           "Elementwise square root."),
    _unary("abs", "abs", (("sign", "x"), ("multiply", "g", "__")),
           "Elementwise absolute value (subgradient 0 at the kink).",
           py_name="abs_"),
    _unary("exp", "exp", (("multiply", "g", "out"),), "Elementwise exponential."),
    _unary("log", "log", (("divide", "g", "x"),), "Elementwise natural logarithm."),
    _unary("sin", "sin", (("cos", "x"), ("multiply", "g", "__")),
           "Elementwise sine."),
    _unary("cos", "cos",
           (("sin", "x"), ("multiply", "g", "__"), ("negative", "__")),
           "Elementwise cosine."),
    _unary("tanh", "tanh",
           (("multiply", "out", "out"), ("subtract", "1.0", "__"),
            ("multiply", "g", "__")),
           "Elementwise hyperbolic tangent (the paper's PINN activation)."),
    _unary("sinh", "sinh", (("cosh", "x"), ("multiply", "g", "__")),
           "Elementwise hyperbolic sine."),
    _unary("cosh", "cosh", (("sinh", "x"), ("multiply", "g", "__")),
           "Elementwise hyperbolic cosine."),
    _unary("arctan", "arctan",
           (("multiply", "x", "x"), ("add", "1.0", "__"), ("divide", "g", "__")),
           "Elementwise inverse tangent."),
    Elementwise(
        "sigmoid", ("a",),
        (("negative", "x"), ("exp", "__"), ("add", "__", "1.0"),
         ("divide", "1.0", "__")),
        ("g * out * (1.0 - out)",),
        "unary", "Elementwise logistic sigmoid.",
    ),
    _binary("maximum", "maximum",
            (("multiply", "g", "mask"),), (("multiply", "g", "notmask"),),
            _SELECTION_DOC.format("maximum"),
            aux=(("mask", (("greater_equal", "x", "y"),)),
                 ("notmask", (("logical_not", "mask"),)))),
    _binary("minimum", "minimum",
            (("multiply", "g", "mask"),), (("multiply", "g", "notmask"),),
            _SELECTION_DOC.format("minimum"),
            aux=(("mask", (("less_equal", "x", "y"),)),
                 ("notmask", (("logical_not", "mask"),)))),
    Elementwise(
        "where", ("cond", "a", "b"), "np.where(mask, x, y)",
        ("np.where(mask, g, 0.0)", "np.where(mask, 0.0, g)"),
        "where", "Differentiable ``np.where`` (the condition itself is constant).",
    ),
    Elementwise(
        "clip", ("a", "lo", "hi"), (("clip", "x", "lo", "hi"),),
        ((("multiply", "g", "mask"),),),
        "unary", "Clamp values to ``[lo, hi]``; gradient is zero outside the interval.",
        aux=(("mask", (("greater_equal", "x", "lo"), ("logical_and", "__", "x <= hi"))),),
    ),
]}

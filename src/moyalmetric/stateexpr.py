"""Textual state expressions for the command surface.

Grammar (colon-separated, case-insensitive constructor names):

    eigen:<m>                       number state |m><m|
    coherent:<re>±<im>i             coherent state with that label
    translated:<base>:<re>±<im>i    <base> translated by the complex amplitude
    super:<i,j,...>:<c1,c2,...>     normalized superposition of number states
    mix:<w1*expr1;w2*expr2;...>     convex mixture of the listed expressions

Complex literals accept a bare real part ("2"), an "i" or "j" suffix, and
scientific notation ("1e-3+0.5i").  Parsing produces the same nested tag
tuples the state constructors stamp on their results, so an expression maps
to a unique constructor call; formatting uses ``repr`` for numbers, which
makes parse(format(tag)) == tag exact for every float.

Two deliberate grammar restrictions keep parsing unambiguous: a mixture must
be the outermost constructor (its terms are separated by ';' and may contain
':'), and mixture terms are pure-state expressions.  Translating a mixture is
expressed as the mixture of translated terms, which is the same state.
"""

from __future__ import annotations

from .fock import (
    FockContext,
    QState,
    coherent_state,
    displace,
    eigenstate,
    mixed_state,
    superposition_state,
)

__all__ = ["StateExprError", "parse_state_expr", "format_state_expr", "build_state"]

_KINDS = ("eigen", "coherent", "translated", "super", "mix")
_MAX_DEPTH = 100  # most nested constructors, well under the recursion limit


class StateExprError(ValueError):
    """Raised when a state expression does not match the grammar."""


def _take(text: str, what: str) -> tuple[str, str]:
    """Split off the next colon-separated token; reject an empty one."""
    token, _, rest = text.partition(":")
    if not token.strip():
        raise StateExprError(f"missing {what} in state expression")
    return token.strip(), rest


def _parse_int(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise StateExprError(f"{what} must be an integer, got {token!r}") from None
    if value < 0:
        raise StateExprError(f"{what} must be nonnegative, got {value}")
    return value


def _parse_complex(token: str) -> complex:
    text = token.strip().replace(" ", "").lower()
    if not text:
        raise StateExprError("empty complex literal")
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise StateExprError(
            f"bad complex literal {token!r}; expected forms like 2, -0.5i or 1+2i"
        ) from None


def _parse_float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise StateExprError(f"{what} must be a number, got {token!r}") from None


def _parse_prefix(text: str, depth: int = 1) -> tuple[tuple, str]:
    """Parse one expression from the front of ``text``, nested ``depth``
    constructors deep; return (tag, rest)."""
    if depth > _MAX_DEPTH:
        raise StateExprError(f"state expression nests more than {_MAX_DEPTH} constructors")
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "eigen":
        token, rest = _take(rest, "eigenstate index")
        return ("eigen", _parse_int(token, "eigenstate index")), rest
    if kind == "coherent":
        token, rest = _take(rest, "coherent label")
        return ("coherent", _parse_complex(token)), rest
    if kind == "translated":
        if not rest:
            raise StateExprError("translated needs a base expression and an amplitude")
        base, rest = _parse_prefix(rest, depth + 1)
        if base[0] == "mix":
            raise StateExprError(
                "a mixture cannot be translated; translate each term instead"
            )
        token, rest = _take(rest, "translation amplitude")
        return ("translated", base, _parse_complex(token)), rest
    if kind == "super":
        idx_token, rest = _take(rest, "superposition indices")
        coeff_token, rest = _take(rest, "superposition coefficients")
        indices = tuple(
            _parse_int(part, "superposition index") for part in idx_token.split(",")
        )
        coeffs = tuple(_parse_complex(part) for part in coeff_token.split(","))
        if len(indices) != len(coeffs):
            raise StateExprError(
                f"superposition needs one coefficient per index, "
                f"got {len(indices)} indices and {len(coeffs)} coefficients"
            )
        return ("super", indices, coeffs), rest
    if kind == "mix":
        if not rest.strip():
            raise StateExprError("mixture needs at least one 'weight*expression' term")
        weights: list[float] = []
        tags: list[tuple] = []
        for term in rest.split(";"):
            w_token, sep, expr_text = term.partition("*")
            if not sep:
                raise StateExprError(
                    f"mixture term {term.strip()!r} must look like 'weight*expression'"
                )
            weight = _parse_float(w_token.strip(), "mixture weight")
            if weight <= 0:
                raise StateExprError(f"mixture weight must be positive, got {weight}")
            tag = parse_state_expr(expr_text)
            if tag[0] == "mix":
                raise StateExprError("mixtures do not nest; flatten the terms")
            weights.append(weight)
            tags.append(tag)
        return ("mix", tuple(weights), tuple(tags)), ""
    raise StateExprError(
        f"unknown state constructor {kind!r}; expected one of {', '.join(_KINDS)}"
    )


def parse_state_expr(text: str) -> tuple:
    """Parse an expression into a constructor tag; reject trailing text."""
    if not isinstance(text, str) or not text.strip():
        raise StateExprError("empty state expression")
    tag, rest = _parse_prefix(text.strip())
    if rest.strip():
        raise StateExprError(f"trailing text {rest!r} after state expression")
    return tag


def _format_real(x: float) -> str:
    # repr round-trips every float exactly, which is what makes
    # parse(format(tag)) == tag hold bit for bit.
    return repr(float(x))


def _format_complex(z: complex) -> str:
    re = 0.0 if z.real == 0 else z.real
    im = 0.0 if z.imag == 0 else z.imag
    sign = "-" if im < 0 else "+"
    return f"{_format_real(re)}{sign}{_format_real(abs(im))}i"


def format_state_expr(tag: tuple) -> str:
    """Canonical text for a constructor tag (inverse of parse_state_expr)."""
    kind = tag[0]
    if kind == "eigen":
        return f"eigen:{tag[1]}"
    if kind == "coherent":
        return f"coherent:{_format_complex(tag[1])}"
    if kind == "translated":
        return f"translated:{format_state_expr(tag[1])}:{_format_complex(tag[2])}"
    if kind == "super":
        indices = ",".join(str(i) for i in tag[1])
        coeffs = ",".join(_format_complex(c) for c in tag[2])
        return f"super:{indices}:{coeffs}"
    if kind == "mix":
        terms = ";".join(
            f"{_format_real(w)}*{format_state_expr(sub)}"
            for w, sub in zip(tag[1], tag[2])
        )
        return f"mix:{terms}"
    raise StateExprError(f"unknown constructor tag {kind!r}")


def build_state(ctx: FockContext, expr: str | tuple) -> QState:
    """Materialize an expression (text or tag) as a state on ``ctx``.

    Grammar problems raise StateExprError; range and leakage problems raise
    the constructors' own ValueError subclasses, since they depend on the
    context rather than on the text.
    """
    tag = parse_state_expr(expr) if isinstance(expr, str) else expr
    kind = tag[0]
    if kind == "eigen":
        return eigenstate(ctx, tag[1])
    if kind == "coherent":
        return coherent_state(ctx, tag[1])
    if kind == "translated":
        return displace(build_state(ctx, tag[1]), tag[2])
    if kind == "super":
        return superposition_state(ctx, list(tag[1]), list(tag[2]))
    if kind == "mix":
        states = [build_state(ctx, sub) for sub in tag[2]]
        return mixed_state(states, list(tag[1]))
    raise StateExprError(f"unknown constructor tag {kind!r}")

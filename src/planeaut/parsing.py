"""Text forms of endomorphisms, families and univariate polynomials.

Grammar, with the usual precedence (^ over * and /, over + and -):

    tuple  := '(' expr (',' expr)* ')'
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ['^' ['-'] INT]
    atom   := INT | 'x'INT | 't' | '(' expr ')'

Division and negative exponents are restricted to constant units of the
coefficient ring, so 1/2 parses over Q but fails over F2, and t^-1 parses
in a family while x1^-1 never does.  The canonical printer emits this
grammar back, so parse and print round-trip.
"""

from __future__ import annotations

from .endo import Endo
from .errors import NotInvertibleError, ParseError
from .poly import MultiPoly
from .rings import LaurentRing


# -- tokens ------------------------------------------------------------------

_PUNCT = set("+-*/^(),")


def _tokenize(src: str):
    """Yield (kind, value, pos); kinds: int, var, t, punctuation marks."""
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index, like x1", i)
            out.append(("var", int(src[i + 1:j]), i))
            i = j
            continue
        if ch == "t":
            out.append(("t", "t", i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return out


# -- AST ---------------------------------------------------------------------

# Deepest parenthesis nesting accepted; the parser recurses once per level.
_MAX_DEPTH = 100


class _Parser:
    """Sums and products are n-ary nodes, so only parentheses recurse."""

    def __init__(self, tokens, length):
        self.toks = tokens
        self.i = 0
        self.length = length
        self.depth = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.length)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        self.i += 1
        return tok

    def expr(self):
        terms = [("+", self.term())]
        while self.peek()[0] in ("+", "-"):
            op = self.take()
            terms.append((op[0], self.term()))
        return ("sum", terms) if len(terms) > 1 else terms[0][1]

    def term(self):
        factors = [("*", self.unary(), None)]
        while self.peek()[0] in ("*", "/"):
            op = self.take()
            factors.append((op[0], self.unary(), op[2]))
        return ("prod", factors) if len(factors) > 1 else factors[0][1]

    def unary(self):
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                neg = not neg
        node = self.power()
        return ("neg", node) if neg else node

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        caret = self.take()
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        return ("pow", base, sign * tok[1], caret[2])

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return ("int", value, pos)
        if kind == "var":
            self.take()
            return ("var", value, pos)
        if kind == "t":
            self.take()
            return ("t", pos)
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        raise ParseError("expected a number, variable, t or parenthesis", pos)


def _first_t(tokens):
    """Position of the first t token, or None."""
    return next((pos for kind, _, pos in tokens if kind == "t"), None)


# -- evaluation --------------------------------------------------------------

def _const_unit(poly: MultiPoly, pos: int, what: str):
    """The coefficient of a constant polynomial, or a ParseError."""
    if not poly.is_constant:
        raise ParseError(f"{what} must be a constant", pos)
    return poly.constant_value()


def _monomial(node, K, nvars, laurent):
    """(key, c) for a product of integers, x_i, t (over K[t, 1/t]) and their
    powers, divided by nonzero integers, t or their powers: the monomial
    c x^e t^k with c in K and key e, or e + (k,) over K[t, 1/t].  None for any
    other node, and for one that would fail, so _eval reports it."""
    exps, k, c = [0] * nvars, 0, K.one
    todo = [(node, 1)]
    while todo:
        node, sign = todo.pop()
        kind = node[0]
        if kind == "prod" and sign == 1:
            todo.extend((child, 1 if op == "*" else -1) for op, child, _ in node[1])
            continue
        if kind == "neg":
            c = K.neg(c)
            todo.append((node[1], sign))
            continue
        e = 1
        if kind == "pow":
            node, e = node[1], node[2]
            kind = node[0]
        if kind == "int":
            v = K.from_int(node[1])
            if K.is_zero(v) and (e < 0 or sign * e < 0):
                return None
            c = K.mul(c, K.pow(v, sign * e))
        elif kind == "t" and laurent:
            k += sign * e
        elif kind == "var" and sign > 0 and e >= 0 and 1 <= node[1] <= nvars:
            exps[node[1] - 1] += e
        else:
            return None
    return (*exps, k) if laurent else tuple(exps), c


def _eval(node, R, K, nvars):
    kind = node[0]
    if kind == "int":
        return MultiPoly.from_int(R, nvars, node[1])
    if kind == "var":
        idx = node[1]
        if not 1 <= idx <= nvars:
            raise ParseError(f"unknown variable x{idx} in a {nvars}-component map",
                             node[2])
        exps = tuple(1 if i == idx - 1 else 0 for i in range(nvars))
        return MultiPoly(R, nvars, {exps: R.one})
    if kind == "t":
        return MultiPoly(R, nvars, {(0,) * nvars: {1: K.one}})
    if kind == "neg":
        return -_eval(node[1], R, K, nvars)
    if kind == "sum":
        # monomial summands go into one term dict, the rest through _eval in
        # their order, so the first summand that fails reports as before
        laurent = R is not K
        monos, rest = {}, None
        for op, child in node[1]:
            mono = _monomial(child, K, nvars, laurent)
            if mono is None:
                rhs = _eval(child, R, K, nvars)
                rhs = rhs if op == "+" else -rhs
                rest = rhs if rest is None else rest + rhs
                continue
            key, c = mono
            monos[key] = K.add(monos.get(key, K.zero), c if op == "+" else K.neg(c))
        terms = {}
        for key, c in monos.items():
            if K.is_zero(c):
                continue
            if laurent:
                terms.setdefault(key[:-1], {})[key[-1]] = c
            else:
                terms[key] = c
        acc = MultiPoly(R, nvars, terms, _clean=False)
        return acc if rest is None else rest + acc
    if kind == "prod":
        factors = iter(node[1])
        acc = _eval(next(factors)[1], R, K, nvars)
        for op, child, pos in factors:
            rhs = _eval(child, R, K, nvars)
            if op == "*":
                acc = acc * rhs
                continue
            c = _const_unit(rhs, pos, "divisor")
            try:
                acc = acc.scale(R.invert(c))
            except NotInvertibleError as exc:
                raise ParseError(f"cannot divide: {exc}", pos) from None
        return acc
    if kind == "pow":
        base = _eval(node[1], R, K, nvars)
        e = node[2]
        if e >= 0:
            return base ** e
        c = _const_unit(base, node[3], "base of a negative power")
        try:
            return MultiPoly(R, nvars, {(0,) * nvars: R.pow(c, e)})
        except NotInvertibleError as exc:
            raise ParseError(f"cannot invert: {exc}", node[3]) from None
    raise ParseError("malformed expression", -1)


def _parse_components(tokens, length):
    parser = _Parser(tokens, length)
    parser.take("(")
    comps = [parser.expr()]
    while parser.peek()[0] == ",":
        parser.take()
        comps.append(parser.expr())
    parser.take(")")
    leftover = parser.peek()
    if leftover[0] is not None:
        raise ParseError("trailing input after the closing parenthesis", leftover[2])
    return comps


def parse_automorphism(src: str, field):
    """Parse "(expr, ..., expr)" to an Endo over `field`, or over
    field[t, 1/t], a family, when t occurs."""
    tokens = _tokenize(src)
    comps = _parse_components(tokens, len(src))
    R = field if _first_t(tokens) is None else LaurentRing(field)
    return Endo([_eval(node, R, field, len(comps)) for node in comps])


def parse_polynomial(src: str, field) -> dict:
    """Parse a single expression in x1 to a univariate {exp: coeff} dict."""
    tokens = _tokenize(src)
    parser = _Parser(tokens, len(src))
    node = parser.expr()
    leftover = parser.peek()
    if leftover[0] is not None:
        raise ParseError("trailing input after the expression", leftover[2])
    t_pos = _first_t(tokens)
    if t_pos is not None:
        raise ParseError("t is not allowed in a plain polynomial", t_pos)
    poly = _eval(node, field, field, 1)
    return {e[0]: c for e, c in poly.terms.items()}

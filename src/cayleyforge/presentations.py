"""Built-in monoid presentations and the presentation file format.

Two monoids ship with the library, reachable as ``builtin:M`` and
``builtin:N``:

* ``M`` over {a, b}, defined by the rule family ``a b^n a -> a b a`` for
  every n >= 2 (a single schema, no concrete rules);
* ``N`` over {c, d}, defined by the four rules ``cddc -> cdc``,
  ``cdddd -> cdc``, ``cdddcc -> cdc`` and ``cdddcdc -> cdc``.

Both are complete; the factories return systems that already carry a
confluence certificate.  ``truncated_system_m(n0)`` keeps only the
instances with exponent up to ``n0``, which is enough to show that no
finite part of M's rule family generates the whole congruence: the word
``a b^(n0+1) a`` is irreducible under the truncation yet equal to
``aba`` under the full family.

Presentation files are UTF-8 text (a leading byte-order mark is
accepted), one declaration per line, with ``#`` comments::

    alphabet a b
    rule a b{n} a -> a b a where n >= 2
    rule c d d c -> c d c

Symbols are single characters separated by spaces.  A rule may contain
at most one ``{var}`` exponent token, and carries a ``where var >= k``
clause with ``k >= 1`` exactly when it does.  An error in a line is
prefixed with its number.  The alphabet and symbol errors are those of
:class:`RewritingSystem` and :meth:`RewritingSystem.check_word`, and a
rule that does not shorten the word is refused by :class:`RewriteRule`
or :class:`RuleSchema`, as for a system built in code.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

from .confluence import DEFAULT_SCHEMA_BOUND, certify
from .rewriting import RewriteRule, RewritingSystem, RuleSchema


class PresentationError(ValueError):
    """A presentation file or builtin name could not be loaded."""


@lru_cache(maxsize=None)
def system_m() -> RewritingSystem:
    """The monoid over {a, b} with the pumped-exponent rule family."""
    system = RewritingSystem(
        alphabet=("a", "b"),
        schemas=(RuleSchema(prefix="a", pumped="b", min_exponent=2, suffix="a", rhs="aba"),),
    )
    return certify(system, DEFAULT_SCHEMA_BOUND)


@lru_cache(maxsize=None)
def system_n() -> RewritingSystem:
    """The monoid over {c, d} with four concrete rules."""
    system = RewritingSystem(
        alphabet=("c", "d"),
        rules=(
            RewriteRule("cddc", "cdc"),
            RewriteRule("cdddd", "cdc"),
            RewriteRule("cdddcc", "cdc"),
            RewriteRule("cdddcdc", "cdc"),
        ),
    )
    return certify(system, DEFAULT_SCHEMA_BOUND)


@lru_cache(maxsize=None)
def truncated_system_m(n0: int) -> RewritingSystem:
    """Only the rules ``a b^n a -> a b a`` for n = 2..n0, as concrete rules."""
    if n0 < 2:
        raise ValueError(f"n0 must be at least 2, got {n0}")
    rules = tuple(
        RewriteRule("a" + "b" * n + "a", "aba") for n in range(2, n0 + 1)
    )
    system = RewritingSystem(alphabet=("a", "b"), rules=rules)
    return certify(system, DEFAULT_SCHEMA_BOUND)


BUILTIN_SYSTEMS = {"M": system_m, "N": system_n}

BUILTIN_PREFIX = "builtin:"

_EXPONENT_TOKEN = re.compile(r"^(?P<symbol>.)\{(?P<var>[A-Za-z][A-Za-z0-9_]*)\}$")


def _parse_symbols(tokens: list[str], what: str) -> str:
    for tok in tokens:
        if len(tok) != 1:
            raise ValueError(f"{what} symbols are single characters, got {tok!r}")
    return "".join(tokens)


def _parse_rule(args: list[str]) -> RewriteRule | RuleSchema:
    if args.count("->") != 1:
        raise ValueError("a rule needs exactly one '->'")
    arrow = args.index("->")
    lhs_tokens = args[:arrow]
    rest = args[arrow + 1 :]
    if not lhs_tokens:
        raise ValueError("empty left-hand side")
    if "where" in rest:
        split = rest.index("where")
        rhs_tokens, clause = rest[:split], rest[split + 1 :]
    else:
        rhs_tokens, clause = rest, None
    rhs = _parse_symbols(rhs_tokens, "right-hand side")

    exponents = [
        (k, m) for k, tok in enumerate(lhs_tokens) if (m := _EXPONENT_TOKEN.match(tok))
    ]
    if len(exponents) > 1:
        raise ValueError("at most one exponent variable per rule")
    if not exponents:
        if clause is not None:
            raise ValueError("'where' clause without an exponent variable")
        return RewriteRule(_parse_symbols(lhs_tokens, "left-hand side"), rhs)

    position, matched = exponents[0]
    var = matched.group("var")
    if clause is None:
        raise ValueError(
            f"exponent variable {{{var}}} needs a 'where {var} >= k' clause"
        )
    if len(clause) != 3 or clause[0] != var or clause[1] != ">=":
        raise ValueError(f"malformed 'where' clause, expected 'where {var} >= k'")
    try:
        min_exponent = int(clause[2])
    except ValueError as exc:
        raise ValueError(f"exponent bound {clause[2]!r} is not an integer") from exc
    prefix = _parse_symbols(lhs_tokens[:position], "left-hand side")
    suffix = _parse_symbols(lhs_tokens[position + 1 :], "left-hand side")
    if min_exponent < 1:
        raise ValueError(f"bound in 'where {var} >= {clause[2]}' must be at least 1")
    return RuleSchema(prefix, matched.group("symbol"), min_exponent, suffix, rhs)


def parse_presentation(text: str) -> RewritingSystem:
    """Parse presentation text into an (uncertified) rewriting system.

    The alphabet must be declared before any rule.  A leading byte-order
    mark is ignored.  Lines end only at CR LF, CR or LF; other Unicode
    line breaks are ordinary characters.  Every error that belongs to one
    line names it.
    """
    declared: RewritingSystem | None = None  # the alphabet, with no rules
    rules: list[RewriteRule] = []
    schemas: list[RuleSchema] = []
    lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        try:
            if kind == "alphabet":
                if declared is not None:
                    raise ValueError("alphabet declared twice")
                if not args:
                    raise ValueError("alphabet needs at least one symbol")
                declared = RewritingSystem(tuple(_parse_symbols(args, "alphabet")))
            elif kind == "rule":
                if declared is None:
                    raise ValueError("rule before the alphabet declaration")
                parsed = _parse_rule(args)
                if isinstance(parsed, RewriteRule):
                    declared.check_word(parsed.lhs + parsed.rhs)
                    rules.append(parsed)
                else:
                    declared.check_word(
                        parsed.prefix + parsed.pumped + parsed.suffix + parsed.rhs
                    )
                    schemas.append(parsed)
            else:
                raise ValueError(f"unknown declaration {kind!r}")
        except ValueError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    if declared is None:
        raise PresentationError("no alphabet declaration")
    return RewritingSystem(declared.alphabet, tuple(rules), tuple(schemas))


def load_presentation(source: str | Path) -> RewritingSystem:
    """Load a system from a ``builtin:`` name or a presentation file.

    Builtins come back certified; file-loaded systems do not (certify
    them before asking for normal-form-based structure).
    """
    name = str(source)
    if name.startswith(BUILTIN_PREFIX):
        key = name[len(BUILTIN_PREFIX) :]
        factory = BUILTIN_SYSTEMS.get(key)
        if factory is None:
            known = ", ".join(sorted(BUILTIN_SYSTEMS))
            raise PresentationError(f"unknown builtin {key!r}; available: {known}")
        return factory()
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PresentationError(f"cannot read {path}: {exc}") from exc
    return parse_presentation(text)

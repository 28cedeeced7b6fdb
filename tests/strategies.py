"""Hypothesis strategies and graph families shared by the tests."""

from hypothesis import strategies as st

from cayleyforge import RewriteRule, RewritingSystem, RuleSchema


@st.composite
def systems(draw, max_rules=3, max_schemas=2):
    """Random systems over two or three symbols, of rules and schemas
    whose prefix or suffix may be empty, each with a shorter right side;
    not confluent in general."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))

    def word(lo, hi):
        return draw(st.text(alphabet=alphabet, min_size=lo, max_size=max(lo, hi)))

    rules = []
    for _ in range(draw(st.integers(0, max_rules))):
        lhs = word(1, 4)
        rules.append(RewriteRule(lhs, word(0, len(lhs) - 1)))
    schemas = []
    for _ in range(draw(st.integers(0 if rules else 1, max_schemas))):
        pumped = draw(st.sampled_from(alphabet))
        prefix, suffix = word(0, 2).rstrip(pumped), word(0, 2).lstrip(pumped)
        k = draw(st.integers(1, 3))
        rhs = word(0, len(prefix) + k + len(suffix) - 1)
        schemas.append(RuleSchema(prefix, pumped, k, suffix, rhs))
    return RewritingSystem(tuple(alphabet), tuple(rules), tuple(schemas))


def hub_path(length):
    """``(n, arcs)`` of the directed path 0 -> 1 -> ... -> length plus
    two hubs, each with an arc to every path vertex.  Refinement by
    rounds splits the path one vertex per round from its end, and every
    round reaches both hubs."""
    hubs = (length + 1, length + 2)
    arcs = [(i, i + 1) for i in range(length)]
    arcs += [(hub, i) for hub in hubs for i in range(length + 1)]
    return length + 3, tuple(arcs)

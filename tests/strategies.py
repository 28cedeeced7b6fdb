"""Hypothesis strategies shared by the tests."""

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

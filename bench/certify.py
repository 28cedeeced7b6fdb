"""certify: critical-pair checking, the truncation argument and many
fresh small systems.

* ``check_local_confluence`` on M at schema bounds 40, 70 and 100, where
  M has (B-1)^2 critical pairs, and on N.  Pair checking is quadratic in
  the number of instantiated rules.
* The truncation check as ``truncation-test`` runs it: build
  ``truncated_system_m(n0)`` (which certifies it), then test that
  ``a b^(n0+1) a`` is irreducible under it and reduces to ``aba`` under M.
  The builtin caches are cleared first, as a CLI user starts cold.
* 500 seeded random presentations over 2 or 3 letters, parsed and then
  certified; about seven in ten are rejected.  Many fresh
  systems with few words each expose any per-system set-up cost, such as
  compiling a matcher, that reduce-stream spreads over long words.  An
  accepted system's critical pairs are re-derived and shown to join by
  the reference code.

The bounds and n0 values are fixed, and small enough to keep every
operation under a quarter second on a quiet machine, so that its fastest
repetition can escape other load; the seed draws the presentations and
the order.
"""

from __future__ import annotations

from cayleyforge import (
    NotConfluentError,
    RewritingSystem,
    check_local_confluence,
    certify,
    is_irreducible,
    normal_form,
    parse_presentation,
    system_m,
    system_n,
    truncated_system_m,
)

from harness import Plan, Task
from reference import (
    N_RULES,
    critical_pair_count,
    critical_pairs,
    irreducible,
    joinable,
    m_rules,
)

M_BOUNDS = (40, 70, 100)
TRUNCATIONS = (20, 40, 60)
PRESENTATIONS = 500
TINY_M_BOUNDS = (6, 10, 14)
TINY_TRUNCATIONS = (4, 8)
TINY_PRESENTATIONS = 20
CERTIFY_BOUND = 12  # certify's default schema bound


def _confluence_task(systems, name, bound, expected_pairs) -> Task:
    def check(report):
        if not report.passed or report.failures:
            return f"{name} at bound {bound} is reported not locally confluent"
        if report.pair_count != expected_pairs:
            return f"{name} at bound {bound}: {report.pair_count} pairs, want {expected_pairs}"
        return None

    return Task(
        "confluence",
        lambda client: client.call(check_local_confluence, systems[name], bound),
        check,
    )


def _truncation_task(n0: int) -> Task:
    word = "a" + "b" * (n0 + 1) + "a"

    def run(client):
        for factory in (system_m, system_n, truncated_system_m):
            factory.cache_clear()
        truncated = client.call(truncated_system_m, n0)
        full = client.call(system_m)
        return (
            truncated,
            client.call(is_irreducible, truncated, word),
            client.call(normal_form, full, word),
        )

    def check(out):
        truncated, irreducible_verdict, full_normal_form = out
        rules = [(rule.lhs, rule.rhs) for rule in truncated.rules]
        if rules != m_rules(n0 + 2) or not truncated.is_certified:
            return f"truncated_system_m({n0}) is not the certified rules a b^n a, n <= {n0}"
        if irreducible_verdict is not True or not irreducible(word, rules):
            return f"a b^{n0 + 1} a is not irreducible under the truncation at {n0}"
        if full_normal_form != "aba":
            return f"a b^{n0 + 1} a reduces to {full_normal_form!r} under M, not 'aba'"
        return None

    return Task("truncation", run, check)


def _random_word(rng, alphabet: str, length: int) -> str:
    return "".join(rng.choices(alphabet, k=length))


def _random_presentation(rng, slot: int):
    """Text of a small length-reducing presentation, with its alphabet,
    concrete rules and schemas (prefix, pumped, min exponent, suffix,
    rhs) as the text states them.

    The slot fixes the shape: alphabet size, number of rules, which rule
    is a schema (one in five) and every length.  So each seed gets the
    same mix of shapes, and the seed picks only the letters.
    """
    alphabet = "abc"[: 2 + slot % 2]
    rules, schemas = [], []
    lines = ["alphabet " + " ".join(alphabet)]
    for j in range(1 + slot // 2 % 3):
        shape = slot + 7 * j
        if shape % 5 == 0:
            pumped = rng.choice(alphabet)
            others = [g for g in alphabet if g != pumped]
            prefix = "".join(rng.choices(others, k=shape // 5 % 2))
            suffix = "".join(rng.choices(others, k=shape // 10 % 2))
            least = 1 + shape // 20 % 2
            shortest = len(prefix) + least + len(suffix)
            rhs = _random_word(rng, alphabet, shape // 3 % shortest)
            schemas.append((prefix, pumped, least, suffix, rhs))
            lhs_tokens = [*prefix, pumped + "{n}", *suffix]
            where = ["where", "n", ">=", str(least)]
        else:
            lhs = _random_word(rng, alphabet, 2 + shape % 3)
            rhs = _random_word(rng, alphabet, shape // 3 % len(lhs))
            rules.append((lhs, rhs))
            lhs_tokens, where = list(lhs), []
        lines.append(" ".join(["rule", *lhs_tokens, "->", *rhs, *where]))
    return "\n".join(lines) + "\n", tuple(alphabet), rules, schemas


def _instances(rules, schemas, bound):
    """Rules plus every schema instance with exponent up to ``bound``: at
    certify's bound, the rules whose critical pairs it checks."""
    out = list(rules)
    for prefix, pumped, least, suffix, rhs in schemas:
        out += [(prefix + pumped * n + suffix, rhs) for n in range(least, bound + 1)]
    return out


def _presentation_task(text, alphabet, rules, schemas) -> Task:
    def run(client):
        system = client.call(parse_presentation, text)
        try:
            return system, client.call(certify, system)
        except NotConfluentError as exc:
            client.count("confluence.certify.rejected", 1)
            return system, exc.report

    def check(out):
        system, verdict = out
        parsed = (
            system.alphabet,
            [(r.lhs, r.rhs) for r in system.rules],
            [(s.prefix, s.pumped, s.min_exponent, s.suffix, s.rhs) for s in system.schemas],
        )
        if parsed != (alphabet, rules, schemas):
            return f"parse_presentation misread {text!r}"
        if isinstance(verdict, RewritingSystem):
            if verdict.certified_bound != CERTIFY_BOUND or verdict.rules != system.rules:
                return f"certify returned a wrong system for {text!r}"
            memo: dict = {}
            instances = _instances(rules, schemas, CERTIFY_BOUND)
            for source, left, right in critical_pairs(instances):
                if not joinable(left, right, rules, schemas, memo):
                    return f"certify accepted {text!r}; critical pair {source!r} does not join"
            return None
        if not verdict.failures:
            return f"certify rejected {text!r} without a non-joining pair"
        for failure in verdict.failures:
            left, right = failure.left_normal, failure.right_normal
            concrete = _instances(rules, schemas, max(len(left), len(right)))
            if left == right or not all(irreducible(w, concrete) for w in (left, right)):
                return f"non-joining pair of {text!r} has normal forms {left!r}, {right!r}"
        return None

    return Task("presentation", run, check)


def make_plan(rng, tiny: bool) -> Plan:
    systems = {"M": system_m(), "N": system_n()}
    tasks, inputs = [], []
    pairs = 0
    for bound in TINY_M_BOUNDS if tiny else M_BOUNDS:
        tasks.append(_confluence_task(systems, "M", bound, (bound - 1) ** 2))
        inputs.append(("check_local_confluence", "M", bound))
        pairs += (bound - 1) ** 2
    n_pairs = critical_pair_count(N_RULES)
    tasks.append(_confluence_task(systems, "N", CERTIFY_BOUND, n_pairs))
    inputs.append(("check_local_confluence", "N", CERTIFY_BOUND))
    pairs += n_pairs
    for n0 in TINY_TRUNCATIONS if tiny else TRUNCATIONS:
        tasks.append(_truncation_task(n0))
        inputs.append(("truncation", n0))
    for slot in range(TINY_PRESENTATIONS if tiny else PRESENTATIONS):
        text, alphabet, rules, schemas = _random_presentation(rng, slot)
        tasks.append(_presentation_task(text, alphabet, rules, schemas))
        inputs.append(("presentation", text))
    order = list(range(len(tasks)))
    rng.shuffle(order)
    return Plan(
        tasks=[tasks[i] for i in order],
        inputs=[inputs[i] for i in order],
        items=pairs,
        warmup=lambda client: client.call(
            check_local_confluence, systems["N"], CERTIFY_BOUND
        ),
        systems=systems,
    )

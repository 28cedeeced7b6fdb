"""reduce-stream: a seeded stream of ``normal_form`` and ``words_equal``
calls on the builtins M and N, one call per operation.

Rewriting does all of the work here.  What a rescanning matcher pays for
is word length times rewrite steps, so the stream mixes four families:

* equal pairs: a random word and a copy grown by inverse-rule expansions
  (``aba -> a b^n a``, ``cdc ->`` one of N's left sides), compared with
  ``words_equal``, and the normal form of such a copy;
* unequal pairs: such a copy with an invariant broken (M's a-count or
  leading b-run, N's leading d-run);
* pumped words ``a(bba)^k`` and ``c(ddc)^k``, one step per period, and
  long single runs ``a b^n a``;
* long words that are already irreducible, which need one full scan and
  no step, so a change that helps many-step words cannot hide a slower
  scan.

Random words have a fixed make-up and fixed lengths, and the seed picks
their letters, the expansions and the order, so every seed asks for
about the same work.  The mix is sized so that the median operation is a
``words_equal`` on 512-symbol N words and the 95th percentile a
``normal_form`` of a grown 1024-symbol N word: both sit inside a dozen
operations of like cost, not on a step between two kinds.
"""

from __future__ import annotations

import re

from cayleyforge import normal_form, system_m, system_n, words_equal

from harness import Plan, Task
from reference import N_RULES, invariants, irreducible_in

PAIR_LENGTH, PAIRS = 512, 6  # equal and unequal pairs per system
GROWN_LENGTH, GROWN = 1024, 11  # normal forms of grown copies per system
PUMPED_LENGTHS = (256, 512, 1024)
RUN_LENGTHS = (256, 1024, 4096)
IRREDUCIBLE_LENGTHS = (256, 1024, 4096)
TINY_DIVISOR = 16  # the smoke test's lengths are 16 to 256
ALPHABETS = {"M": "ab", "N": "cd"}


def _random_word(rng, name: str, length: int) -> str:
    """A random word of fixed make-up: the blocks ``a b^k`` (``c d^k``) a
    uniformly random word has in expectation, about length/2^(k+2) of
    each, shuffled.  Fixed block counts fix the number of rewrite steps,
    so seeds differ in letters and positions but not in work."""
    head, tail = ALPHABETS[name]
    blocks = []
    k = 0
    while length >> (k + 2):
        blocks += [head + tail * k] * (length >> (k + 2))
        k += 1
    blocks += [head] * (length - sum(map(len, blocks)))
    rng.shuffle(blocks)
    return "".join(blocks)


def _grow(rng, name: str, word: str, expansions: int) -> str:
    """An equal copy: replace random occurrences of ``aba`` (``cdc``) by a
    longer word that rewrites to it in one step (``a b^n a`` with n = 2
    to 6 in turn, or N's left sides in turn)."""
    short = "aba" if name == "M" else "cdc"
    pattern = re.compile(f"(?={short})")
    for j in range(expansions):
        spots = [m.start() for m in pattern.finditer(word)]
        if not spots:
            break
        i = rng.choice(spots)
        longer = "a" + "b" * (2 + j % 5) + "a" if name == "M" else N_RULES[j % 4][0]
        word = word[:i] + longer + word[i + 3:]
    return word


def _break(rng, name: str, word: str, slot: int) -> str:
    """A word unequal to ``word``: one invariant of the system changed
    (M's leading b-run in even slots, its a-count in odd ones)."""
    if name == "N":
        return "d" + word
    if slot % 2 == 0:
        return "b" + word
    i = rng.randrange(len(word) + 1)
    return word[:i] + "a" + word[i:]


def _block_word(rng, block: str, separator: str, length: int) -> str:
    """Runs of ``block`` (1 to 4 long) joined by single separators."""
    word = ""
    while len(word) < length:
        if word:
            word += separator
        word += block * rng.randint(1, 4)
    word = word[:length]
    return word[:-1] + block if word.endswith(separator) else word


def _irreducible_word(rng, name: str, length: int) -> str:
    """A word of the documented normal-form shapes: ``b^s u b^t`` for M,
    ``d^p v (dddc)^q d^r`` with ``r <= 3`` for N."""
    edge = length // 8
    if name == "M":
        s, t = rng.randint(0, edge), rng.randint(0, edge)
        return "b" * s + _block_word(rng, "a", "b", length - s - t) + "b" * t
    p, q, r = rng.randint(0, edge), rng.randint(0, edge // 4), rng.randint(0, 3)
    middle = _block_word(rng, "c", "d", length - p - 4 * q - r)
    return "d" * p + middle + "dddc" * q + "d" * r


def _normal_form_task(systems, name, word, expected=None) -> Task:
    """The result must be irreducible, keep the input's invariants and,
    where the family fixes it, equal ``expected``."""

    def check(out):
        what = f"{name} normal form of {word[:16]}... ({len(word)} symbols)"
        if expected is not None and out != expected:
            return f"{what} is not the expected word"
        if not irreducible_in(name, out):
            return f"{what} is reducible"
        if invariants(name, out) != invariants(name, word):
            return f"{what} changed an invariant"
        return None

    return Task(
        "normal_form", lambda client: client.call(normal_form, systems[name], word), check
    )


def _equal_task(systems, name, w1, w2, expected: bool) -> Task:
    def check(out):
        if out is expected:
            return None
        return f"{name} words_equal gave {out} on a pair built to give {expected}"

    return Task(
        "words_equal", lambda client: client.call(words_equal, systems[name], w1, w2), check
    )


def make_plan(rng, tiny: bool) -> Plan:
    scale = TINY_DIVISOR if tiny else 1
    tasks: list[Task] = []
    inputs: list = []
    systems = {"M": system_m(), "N": system_n()}
    for name in ("M", "N"):
        for slot in range(PAIRS):
            length = PAIR_LENGTH // scale
            word = _random_word(rng, name, length)
            grown = _grow(rng, name, word, length // 16)
            broken = _break(rng, name, _grow(rng, name, word, length // 16), slot)
            tasks.append(_equal_task(systems, name, word, grown, True))
            tasks.append(_equal_task(systems, name, word, broken, False))
            inputs += [("equal", name, word, grown), ("unequal", name, word, broken)]
        for _ in range(GROWN):
            length = GROWN_LENGTH // scale
            grown = _grow(rng, name, _random_word(rng, name, length), length // 16)
            tasks.append(_normal_form_task(systems, name, grown))
            inputs.append(("normal_form", name, grown))
        for length in PUMPED_LENGTHS:
            k = (length // scale - 1) // 3
            head, period = ("a", "bba") if name == "M" else ("c", "ddc")
            word = head + period * k
            expected = ("ab" if name == "M" else "cd") * k + head
            tasks.append(_normal_form_task(systems, name, word, expected))
            inputs.append(("normal_form", name, word))
        if name == "M":
            for length in RUN_LENGTHS:
                word = "a" + "b" * (length // scale - 2) + "a"
                tasks.append(_normal_form_task(systems, name, word, "aba"))
                inputs.append(("normal_form", name, word))
        for length in IRREDUCIBLE_LENGTHS:
            word = _irreducible_word(rng, name, length // scale)
            tasks.append(_normal_form_task(systems, name, word, word))
            inputs.append(("normal_form", name, word))

    order = list(range(len(tasks)))
    rng.shuffle(order)
    symbols = sum(len(w) for entry in inputs for w in entry[2:])
    return Plan(
        tasks=[tasks[i] for i in order],
        inputs=[inputs[i] for i in order],
        items=symbols,
        warmup=lambda client: client.call(normal_form, systems["M"], "abba"),
        systems=systems,
    )

"""The ``.met`` parser against ``rule_parser``, the parser it replaced.

Both parse the same texts: printed random ASTs, the printed residuals of
every target×domain pair and the abstract interpreter, the printed
residuals of random source programs drawn as the ``compile`` benchmark
draws them, and seeded mutations of those texts.  Each text must give an
equal AST from both, or a ``ParseError`` with an equal message, line and
column.  Non-ASCII digits are left out of the mutations: the old
tokenizer reads them as integer literals, the new one rejects them
(``test_met_parser.py`` pins that).

Runs under pytest, or alone without it::

    PYTHONPATH=src python tests/test_met_parser_oracle.py
"""

from __future__ import annotations

import random
import string

import rule_parser
from astgen import random_met_expr
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import DOMAINS
from retargeter.errors import ParseError
from retargeter.met.parser import parse_met
from retargeter.met.printer import print_met
from retargeter.peval import specialize
from retargeter.retargeting import retarget
from retargeter.srclang import embed_src_expr, random_src_expr
from retargeter.tgtlang import TARGETS

# Printable ASCII, with tab, newline and carriage return, plus a non-ASCII
# space and a non-ASCII letter.
ALPHABET = string.printable + "\xa0é"
MUTATIONS = 6000
COMPILED = 120      # source programs whose residuals are seed texts


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as err:
        return ParseError, str(err), err.line, err.column


def seed_texts() -> list[str]:
    rng = random.Random(8)
    texts = [print_met(random_met_expr(rng, rng.randint(0, 5))) for _ in range(300)]
    texts += [f"# target: {t}\n{print_met(retarget(t, d).residual)}"
              for t in TARGETS for d in DOMAINS.values()]
    interpreter = build_abstract_interpreter()
    texts.append(print_met(interpreter))
    rng = random.Random(0)
    texts += [print_met(specialize(interpreter, embed_src_expr(
                  random_src_expr(rng, "int", rng.randint(3, 7)))))
              for _ in range(COMPILED)]
    return texts


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with 1 to 3 characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
    return text


def fails(text: str) -> bool:
    return isinstance(outcome(parse_met, text), tuple)


def differences(texts: list[str]) -> list[tuple[str, object, object]]:
    found = []
    for text in texts:
        old, new = outcome(rule_parser.parse_met, text), outcome(parse_met, text)
        if old != new:
            found.append((text, old, new))
    return found


def test_seed_texts_parse_alike():
    texts = seed_texts()
    assert differences(texts) == []
    assert not any(map(fails, texts))


def test_mutated_texts_parse_or_fail_alike():
    texts = seed_texts()
    rng = random.Random(2025)
    mutated = [mutate(rng, rng.choice(texts)) for _ in range(MUTATIONS)]
    assert differences(mutated) == []
    failed = sum(map(fails, mutated))
    # Both outcomes are well represented, so neither half is vacuous.
    assert MUTATIONS // 10 < failed < MUTATIONS * 9 // 10, failed


if __name__ == "__main__":
    test_seed_texts_parse_alike()
    test_mutated_texts_parse_or_fail_alike()
    print(f"parsers agree on {len(seed_texts())} texts and {MUTATIONS} mutations")

"""Seeded token mutations of the corpus through the command line.

Each mutant deletes, replaces, inserts or duplicates a few tokens of a
corpus program.  ``lopec check`` must end every one with an exit code
(0 ok, 1 diagnostics, 2 usage, 3 runtime fault) and never raise.  A mutant
that checks clean must emit its kernel C and its host plan with exit 0,
and end ``lopec run`` on four images with an exit code too.
"""

import random
import re

from conftest import CORPUS_FILES
from lopec.cli import main

MUTANTS_PER_FILE = 100
# identifiers, numbers, then any other single character; whitespace and
# newlines are tokens too, so a mutant keeps the line structure it is not
# mutating
TOKEN = re.compile(r"[A-Za-z_]\w*|\d+(?:\.\d*)?|\s+|\S")


def mutate(tokens: list[str], rng: random.Random) -> str:
    out = list(tokens)
    pool = [t for t in tokens if not t.isspace()]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        op = rng.choice(("delete", "replace", "insert", "duplicate"))
        if op == "delete":
            del out[i]
        elif op == "replace":
            out[i] = rng.choice(pool)
        elif op == "insert":
            out.insert(i, rng.choice(pool))
        else:
            out.insert(i, out[i])
    return "".join(out)


def test_mutated_corpus_exits_with_a_code(tmp_path, capsys):
    rng = random.Random(2015)
    codes = {"check": [], "run": []}
    for path in CORPUS_FILES:
        tokens = TOKEN.findall(path.read_text())
        assert "".join(tokens) == path.read_text()
        for n in range(MUTANTS_PER_FILE):
            src = tmp_path / f"{path.stem}_{n}.lope"
            src.write_text(mutate(tokens, rng))
            code = main(["check", str(src)])
            assert code in (0, 1, 2, 3), src.read_text()
            codes["check"].append(code)
            if code == 0:
                for target in ("kernel-c", "plan"):
                    assert main(["emit", str(src), "--target", target,
                                 "-o", str(tmp_path / "emitted")]) == 0, \
                        src.read_text()
                code = main(["run", str(src), "--images", "4",
                             "--grid-rows", "2", "--devices", "1",
                             "--steps", "2", "-o", str(tmp_path / "out")])
                assert code in (0, 1, 2, 3), src.read_text()
                codes["run"].append(code)
            capsys.readouterr()
    # the mutants reach every stage: rejected, run, and faulted at run time
    assert 1 in codes["check"] and 0 in codes["run"] and 3 in codes["run"]

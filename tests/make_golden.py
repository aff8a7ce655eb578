"""Build the six golden files of ``tests/golden`` from the CLI's outputs.

The eval reports (``eval_<lang>.txt`` and ``.xml``) are the stdout of
``tqa eval --lang <lang> --fixtures src/tqa/data/fixtures_<lang>.xml
--gold-te``, with ``--format xml`` for the ``.xml`` files.  The
transcripts (``cli_<lang>.txt``) hold, for every shipped testbed question
in order, the exit code, stdout and stderr of ``tag``, ``classify``,
``decompose`` and ``answer``.

    PYTHONPATH=src python3 tests/make_golden.py          # rewrite all six
    PYTHONPATH=src python3 tests/make_golden.py --check  # compare them

``--check`` writes nothing and exits 1 when a file differs.  The module
imports only the standard library and ``tqa``, so it runs on any Python
the package supports, with no test dependency installed.  A change that
alters an output must rewrite the files and say why the output moved.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

from tqa.cli import main as tqa
from tqa.corpus import shipped_testbed
from tqa.packs import DATA_DIR

GOLDEN = Path(__file__).parent / "golden"
LANGS = ("en", "es")
QUESTION_COMMANDS = ("tag", "classify", "decompose", "answer")


def run(*argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``tqa`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tqa(list(argv))
    return code, out.getvalue(), err.getvalue()


def eval_report(lang: str, fmt: str) -> str:
    """The eval report with fixtures and gold expressions, in ``fmt``."""
    code, out, err = run("eval", "--lang", lang, "--fixtures",
                         str(DATA_DIR / f"fixtures_{lang}.xml"), "--gold-te",
                         "--format", fmt)
    if (code, err) != (0, ""):
        raise RuntimeError(f"tqa eval --lang {lang} exited {code}: {err}")
    return out


def cli_transcript(lang: str) -> str:
    """Every question command on every shipped testbed question."""
    parts = []
    for q in shipped_testbed(lang).questions:
        for command in QUESTION_COMMANDS:
            code, out, err = run(command, "--lang", lang, q.question)
            parts.append(f"=== Q{q.id} {command} exit {code}\n"
                         f"--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


#: Each golden file's name and the builder of its text.
BUILDERS = {name: build for lang in LANGS for name, build in (
    (f"eval_{lang}.txt", partial(eval_report, lang, "text")),
    (f"eval_{lang}.xml", partial(eval_report, lang, "xml")),
    (f"cli_{lang}.txt", partial(cli_transcript, lang)))}


def build(name: str) -> bytes:
    """The bytes the golden file ``name`` should hold."""
    return BUILDERS[name]().encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the files instead of writing them; "
                             "exit 1 if one differs")
    check = parser.parse_args(argv).check
    differ = []
    for name in BUILDERS:
        path, data = GOLDEN / name, build(name)
        if not check:
            path.write_bytes(data)
        elif not path.is_file() or path.read_bytes() != data:
            differ.append(name)
            print(f"differs: {path}")
    if check:
        print(f"{len(BUILDERS) - len(differ)} of {len(BUILDERS)} golden "
              "files match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of the package under ``src/``.

A code line is a physical line that holds a token other than a comment, a
docstring or the layout tokens of blank lines and indentation.  A
docstring here is any string that is a statement on its own: the token
that starts a logical line and ends it.  Run it from the repository root:

    python tests/code_lines.py

It prints one line per module and the total last.  pytest does not collect
this file: its name does not start with ``test_``.
"""

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines in the Python file at path."""
    with open(path, "rb") as handle:
        tokens = [tok for tok in tokenize.tokenize(handle.readline) if tok.type not in LAYOUT - {tokenize.NEWLINE}]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        alone = (i == 0 or tokens[i - 1].type == tokenize.NEWLINE) and (
            i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE)
        if not (tok.type == tokenize.STRING and alone):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code-only lines of each module of a package directory.

A line counts when a token of code starts or runs on it; comments, blank
lines and docstrings (a string that is a statement of its own) are skipped.
This is the ``tokenize`` count ROADMAP.md quotes for ``src/qlt``.

    python tools/code_lines.py [package_dir ...]    # default: src/qlt

prints ``<count> <module>`` per module, sorted by path, then the total.
"""

import io
import sys
import tokenize
from pathlib import Path

#: The tokens that hold no code; a string that follows one of the first four
#: and is followed by a NEWLINE is a statement of its own, a docstring.
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source.encode()).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and before.type in _LAYOUT[:4]
                     and after.type == tokenize.NEWLINE)
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    total = 0
    for package in argv or ["src/qlt"]:
        for path in sorted(Path(package).glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Lines of each src/paralift module and their total, in full and as code
(no docstrings, comments or blank lines), and its public names: the length
of its ``__all__``, read without importing it ("-" where it has none).
python3 tools/loc.py [CHECKOUT]"""
import ast
import io
import sys
import tokenize
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    docs = {line for n in ast.walk(ast.parse(text))
            if isinstance(n, DOCUMENTED) and ast.get_docstring(n)
            for line in range(n.body[0].lineno, n.body[0].end_lineno + 1)}
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.string.strip() and t.type != tokenize.COMMENT]
    return len({line for t in tokens
                for line in range(t.start[0], t.end[0] + 1)} - docs)


def public_names(text):
    """The length of the module's literal ``__all__``, None without one."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return len(node.value.elts)
    return None


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    paths = sorted((root / "src" / "paralift").glob("*.py"))
    if not paths:
        print(f"loc.py: {root} has no src/paralift/*.py; give a checkout",
              file=sys.stderr)
        sys.exit(2)
    rows = [(path.name, len(text.splitlines()), code_lines(text),
             public_names(text))
            for path in paths for text in [path.read_text()]]
    rows.append(("total", *(sum(v or 0 for v in col)
                            for col in list(zip(*rows))[1:])))
    for name, full, code, names in rows:
        shown = "-" if names is None else names
        print(f"{name:16} {full:6} {code:6} {shown:>6}")

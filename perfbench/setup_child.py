"""Set-up as a fresh process pays it: import, parse, build and sample.

Usage: python3 perfbench/setup_child.py CASES.json   (with src on PYTHONPATH)

CASES.json holds a list of config documents.  The parent times this process
from spawn to exit; the process itself prints one JSON line with the time its
import of ``paralift.cli`` took.  A config that build_structure rejects is
skipped, as the CLI would stop on it.
"""

import json
import sys
import time

start = time.perf_counter()
import paralift.cli  # noqa: E402,F401  (the import is what is timed)

import_s = time.perf_counter() - start

from gate import REJECTIONS  # noqa: E402
from probes import prepare  # noqa: E402

with open(sys.argv[1]) as fh:
    documents = json.load(fh)
for document in documents:
    try:
        prepare(document)
    except REJECTIONS:
        pass
print(json.dumps({"import_s": import_s}))

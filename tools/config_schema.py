"""Write schemas/config.schema.json from the field table in paralift.config.

    python3 tools/config_schema.py

The schema is generated, never edited by hand; tests/test_config_schema.py
fails when the committed file differs from this output.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from paralift.config import config_schema  # noqa: E402

(ROOT / "schemas" / "config.schema.json").write_text(
    json.dumps(config_schema(), indent=2) + "\n")

"""Rewrite ``manifest.json`` from the code as it stands, after a deliberate
byte change, and print each file whose hash or size changed and each command
whose output changed.

    PYTHONPATH=src python tests/golden/regenerate.py

A change that regenerates the manifest lists the printed files in CHANGES.md.
"""

import json
import tempfile

from corpus import MANIFEST, build, differences


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        manifest = build(directory)
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text())
        for line in differences(old, manifest):
            print(line)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files, {len(manifest['commands'])} commands)")


if __name__ == "__main__":
    main()

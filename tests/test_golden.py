"""Every file and printed line of the committed byte corpus (``tests/golden``)
matches its manifest, at ``--workers 1`` and ``--workers 2``.

A deliberate byte change regenerates the manifest with
``tests/golden/regenerate.py`` and lists the changed files in CHANGES.md.
"""

import json

import numpy as np
from golden.corpus import MANIFEST, blas_version, build, differences


def test_corpus_matches_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = build(tmp_path / "corpus")
    lines = differences(expected, actual)
    assert not lines, "\n".join(
        [
            f"{len(lines)} differences from {MANIFEST.name}, recorded with numpy {expected['numpy']} and "
            f"{expected['blas']} (this run: numpy {np.__version__}, {blas_version()}):",
            *lines,
        ]
    )


def test_worker_count_changes_no_byte():
    # the pool's files are the sequential files, so each pair of directories holds one set of bytes
    files = json.loads(MANIFEST.read_text())["files"]
    pairs = [(path, path.replace("_w1/", "_w2/", 1)) for path in files if "_w1/" in path]
    assert pairs
    for sequential, pooled in pairs:
        assert files[sequential] == files[pooled], pooled

"""Run one ``evhc`` study in this process with the recorder installed.

Usage: python3 traced.py SRC_DIR RESULT_JSON EVHC_ARG...

The study runs through ``evhc.cli.main`` exactly as the command line would
run it. When it ends, the per-layer metrics, the exit code and the span
records are written to RESULT_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    src, result_path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, src)
    from recorder import Recorder, install

    recorder = Recorder()
    install(recorder)
    import evhc.cli

    code = evhc.cli.main(argv)
    result_path.write_text(
        json.dumps(
            {
                "returncode": code,
                "missing": recorder.missing,
                "metrics": recorder.metrics(),
                "spans": recorder.spans,
            }
        ),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

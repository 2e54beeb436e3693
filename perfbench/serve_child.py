"""The detection server under test, in its own process.

    python3 perfbench/serve_child.py <bundle> <n_shards> <executor>

Registers the bundle in a ``ModelRegistry`` as the default model
``leaps/v1``, starts the server on a free localhost port, prints one
JSON line ``{"address": [host, port]}`` and serves until its standard
input closes; then it stops the server and its shard workers.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serve import ModelRegistry, start_in_thread  # noqa: E402


def main(argv) -> int:
    bundle, n_shards, executor = argv[0], int(argv[1]), argv[2]
    registry = ModelRegistry()
    registry.register("leaps", "v1", bundle, default=True)
    handle = start_in_thread(registry, n_shards=n_shards, executor=executor)
    print(json.dumps({"address": list(handle.address)}), flush=True)
    try:
        sys.stdin.read()
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

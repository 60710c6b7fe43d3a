"""Time what every CLI invocation pays first: ``import specfam`` and config validation.

Usage: setup_probe.py SRC_DIR CONFIGS_JSON.  Prints the wall and the CPU
seconds from just before ``import specfam`` to after ``validate_config`` has
accepted every config in the file.
"""

import json
import sys
import time

src, configs_path = sys.argv[1], sys.argv[2]
with open(configs_path, encoding="utf-8") as fh:
    configs = json.load(fh)
sys.path.insert(0, src)

wall, cpu = time.perf_counter(), time.process_time()
import specfam  # noqa: E402

for config in configs:
    specfam.validate_config(config)
print(time.perf_counter() - wall, time.process_time() - cpu)

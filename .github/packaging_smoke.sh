#!/usr/bin/env bash
# Packaging smoke: install the package from the checkout, then run the
# console script from outside it.  The installed package must carry
# default_config.json and gramkernel.c, and a run must write its five
# report files.  With --require-kernel, the installed package must also
# compile and load its swap search (irlobs.gramkernel) rather than fall
# back to numpy.
#
#     bash .github/packaging_smoke.sh [--require-kernel]
set -euo pipefail
python -m pip install --no-deps .
cd "$RUNNER_TEMP"
python - "${1:-}" <<'PY'
import sys
from irlobs import gramkernel
assert gramkernel._SOURCE.is_file(), "the installed package lacks gramkernel.c"
loaded = gramkernel.load() is not None
print(f"compiled swap search loaded: {loaded}")
sys.exit(sys.argv[1] == "--require-kernel" and not loaded)
PY
irlobs are
# a 2 s run with all three run flags: one config validation in the
# installed package, five report files
echo '{"run": {"duration": 2.0}}' > short.json
irlobs run --config short.json --mode observed --seed 1 --full-rate --out "$RUNNER_TEMP/out"
# the same run into another directory writes the same bytes
irlobs run --config short.json --mode observed --seed 1 --full-rate --out "$RUNNER_TEMP/again"
for f in ptilde.csv qtilde.csv thetatilde.csv wtilde.csv summary.json; do
  test -s "$RUNNER_TEMP/out/$f"
  cmp "$RUNNER_TEMP/out/$f" "$RUNNER_TEMP/again/$f"
done
# a report stride far above the step count needs no stride-sized buffer
echo '{"run": {"duration": 2.0, "report_stride": 1000000000000}}' > stride.json
irlobs run --config stride.json --out "$RUNNER_TEMP/stride"

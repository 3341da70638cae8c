#!/usr/bin/env bash
# Packaging smoke: install the package from the checkout, then run the
# console script from outside it.  The installed package must carry
# default_config.json and gramkernel.c, and a run must write its five
# report files.  With --require-kernel, the installed package must also
# compile and load its swap search (irlobs.gramkernel) rather than fall
# back to numpy, into a fresh kernel cache holding a stale build, and
# leave exactly one build there.
#
#     bash .github/packaging_smoke.sh [--require-kernel]
set -euo pipefail
python -m pip install --no-deps .
cd "$RUNNER_TEMP"
XDG_CACHE_HOME="$RUNNER_TEMP/kernel-cache" python - "${1:-}" <<'PY'
import sys
from irlobs import gramkernel
assert gramkernel._SOURCE.is_file(), "the installed package lacks gramkernel.c"
require = sys.argv[1] == "--require-kernel"
cache = gramkernel._cache_dir()
if require:
    cache.mkdir(parents=True, exist_ok=True)
    (cache / "gramkernel-00000000.so").write_bytes(b"a stale build")
loaded = gramkernel.load() is not None
builds = sorted(path.name for path in cache.glob("gramkernel-*.so"))
print(f"compiled swap search loaded: {loaded}; builds in its cache: {builds}")
sys.exit(require and not (loaded and len(builds) == 1))
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

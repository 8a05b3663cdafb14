#!/usr/bin/env bash
# Build the jim CLI and the benchmark from source, then run one
# benchmark invocation:
#   bash perfbench/run.sh --workload explore|chatty|routed --seed N \
#        --seconds S --trace 0|1
# Run from the repository root.  Build output goes to .bench_build.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a jim checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
build=.bench_build
if ! dune build --root . --build-dir "$build" --profile release \
    ./bin/jim_cli.exe ./perfbench/jimbench.exe ./perfbench/jimtrace.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec "$build/default/perfbench/jimbench.exe" \
  --jim "$build/default/bin/jim_cli.exe" \
  --tracer "$build/default/perfbench/jimtrace.exe" "$@"

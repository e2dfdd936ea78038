#!/usr/bin/env bash
# Builds njoind and the benchmark from the checkout this is run in, then runs
# the benchmark with the given arguments:
#
#   bash njbench/run.sh --workload pair-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ there (the Go build cache included), and nothing is fetched.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/cmd/njoind ]]; then
  echo "run.sh: no go.mod or cmd/njoind in $root; run it from the repository root" >&2
  exit 2
fi
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's telemetry state in the checkout, and
# mode "off" stops the go command from starting its telemetry sidecar, a
# process in a session of its own that could outlive this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/njoind" ./cmd/njoind >&2
(cd "$root/njbench" && go build -o "$out/njbench" .) >&2
exec "$out/njbench" -bin "$out/njoind" -work "$out" "$@"

#!/bin/sh
# profile.sh — capture the cycle-attribution profile of one experiment run.
#
# Produces two artifacts in the output directory:
#   1. <exp>_<scale>.folded: folded flamegraph stacks, one
#      "core;frame;...;frame category cycles" line per leaf — feed it to
#      flamegraph.pl or drop it into https://www.speedscope.app.
#   2. <exp>_<scale>.pb.gz: the same attribution as a gzipped pprof proto —
#      `go tool pprof -top <file>` works out of the box.
#
# Usage:
#   scripts/profile.sh [outdir]
#   EXP=serveN SCALE=small scripts/profile.sh out
#
# EXP must be an experiment whose registry entry declares the profile sink
# (experiments.UsesProfile): profN, serveN, adaptN, faultN, pipeN or obsN.
# Profiling never changes simulated results — the tables printed here are
# byte-identical to an unprofiled run (TestObservabilityDifferential and
# TestProfiledDifferential hold the module to that).

set -eu

outdir="${1:-.}"
exp="${EXP:-profN}"
scale="${SCALE:-tiny}"

mkdir -p "$outdir"
folded="$outdir/${exp}_${scale}.folded"
pprof="$outdir/${exp}_${scale}.pb.gz"

echo ">> amacbench -exp $exp -scale $scale -flame $folded -profile $pprof"
go run ./cmd/amacbench -exp "$exp" -scale "$scale" -flame "$folded" -profile "$pprof"

echo ">> wrote $folded — render with flamegraph.pl or https://www.speedscope.app"
echo ">> wrote $pprof — inspect with: go tool pprof -top $pprof"

#!/bin/sh
# trace.sh — capture a Perfetto-loadable trace and a metrics time series from
# one experiment run.
#
# Produces two artifacts in the output directory:
#   1. <exp>_<scale>.trace.json: Chrome trace-event JSON of the designated
#      traced cell (slot lifecycle spans, controller decision instants,
#      queue/pipe depth counters). Load it at https://ui.perfetto.dev or
#      chrome://tracing. One simulated cycle renders as one microsecond.
#   2. <exp>_<scale>.metrics.jsonl: gauge samples (width, MSHR occupancy,
#      queue depth, sliding p99, stall fraction) as JSON Lines, one sample
#      per line — ready for jq or a dataframe load.
#
# Usage:
#   scripts/trace.sh [outdir]
#   EXP=serveN SCALE=small scripts/trace.sh out
#
# EXP must be an experiment whose registry entry declares the trace and
# metrics sinks (experiments.UsesTrace, UsesMetrics): serveN, adaptN, faultN,
# pipeN or obsN; `amacbench -exp <id> -trace t.json` names them when it
# rejects another. Tracing never changes simulated results — the tables
# printed here are byte-identical to an untraced run
# (TestObservabilityDifferential holds the module to that).

set -eu

outdir="${1:-.}"
exp="${EXP:-adaptN}"
scale="${SCALE:-tiny}"
interval="${INTERVAL:-}" # unset/empty = the 4096-cycle default

mkdir -p "$outdir"
trace="$outdir/${exp}_${scale}.trace.json"
metrics="$outdir/${exp}_${scale}.metrics.jsonl"

echo ">> amacbench -exp $exp -scale $scale -trace $trace -metrics $metrics"
if [ -n "$interval" ]; then
	go run ./cmd/amacbench -exp "$exp" -scale "$scale" \
		-trace "$trace" -metrics "$metrics" -metrics-interval "$interval"
else
	go run ./cmd/amacbench -exp "$exp" -scale "$scale" \
		-trace "$trace" -metrics "$metrics"
fi

echo ">> wrote $trace — load it at https://ui.perfetto.dev"

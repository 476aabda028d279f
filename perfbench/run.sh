#!/usr/bin/env bash
# Builds greylistd and the benchmark driver from this checkout, then runs
# the driver with GOMAXPROCS=1 pinned to the second CPU this process may
# use; the driver pins greylistd to the first. With fewer than two CPUs
# (or no taskset) nothing is pinned. Build outputs and Go's caches stay
# in the build directory ($CARGO_TARGET_DIR, default .bench_build) inside
# the checkout. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 24 --trace 0
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/greylistd" ./cmd/greylistd
go -C perfbench build -o "$out/bin/perfbench" .

cpus=()
IFS=, read -ra ranges <<<"$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)"
for r in "${ranges[@]}"; do
	if [[ $r == *-* ]]; then
		for ((c = ${r%-*}; c <= ${r#*-}; c++)); do cpus+=("$c"); done
	elif [[ -n $r ]]; then
		cpus+=("$r")
	fi
done
pin=()
daemon_cpu=""
if command -v taskset >/dev/null && ((${#cpus[@]} >= 2)); then
	pin=(taskset -c "${cpus[1]}")
	daemon_cpu="${cpus[0]}"
fi
exec "${pin[@]}" env GOMAXPROCS=1 "$out/bin/perfbench" -bin "$out/bin/greylistd" \
	-work "$out/run" -daemon-cpu "$daemon_cpu" "$@"

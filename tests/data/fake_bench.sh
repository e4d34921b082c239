#!/bin/sh
# Stands in for every bench binary in bench_snapshot's run-mode ctest. It
# writes one gated metric named after itself to --json=PATH, except that
# bench_service_throughput exits 1 without writing (a crashed bench) and
# bench_micro_kernels exits 1 after writing (a bench whose own gate failed).
name=$(basename "$0")
out=""
for arg in "$@"; do
  case "$arg" in --json=*) out="${arg#--json=}" ;; esac
done
[ "$name" = bench_service_throughput ] && exit 1
printf '{"bench": "%s", "metrics": [{"name": "fake.%s", "value": 1, "unit": "x", "gate": "near"}]}\n' \
  "$name" "$name" > "$out"
[ "$name" = bench_micro_kernels ] && exit 1
exit 0

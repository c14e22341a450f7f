#!/usr/bin/env bash
# bench.sh — verification + performance snapshot for the flow.
#
# Runs go vet, the tier-1 test suite, and the Flow benchmarks with
# memory stats, each benchmark COUNT=6 times, then writes a
# BENCH_<date>.json snapshot next to the repo root so future PRs can
# track the performance trajectory. ns/op on shared hardware is noisy,
# so every row records the median and the interquartile range (IQR) of
# ns/op over the six runs, plus the medians of B/op and allocs/op.
#
# Usage: scripts/bench.sh [--compare OLD.json] [benchtime]   (default 5x)
#
# With --compare OLD.json, after writing the new snapshot the per-
# benchmark median ns/op and allocs/op deltas against the old snapshot
# are printed (negative = new run is faster / allocates less), with both
# sides' ns/op IQR for judging whether a delta clears the noise. Custom
# benchmark metrics (b.ReportMetric units like samples/sec) are captured
# as medians under sanitized keys (samples_sec_median) and compared when
# both snapshots have them (positive = new run has higher throughput).
# Snapshots written before the median format (one "ns_op" value per
# benchmark) compare by that single value.
set -euo pipefail
cd "$(dirname "$0")/.."

COMPARE=""
if [[ "${1:-}" == "--compare" ]]; then
  COMPARE="${2:?--compare requires a snapshot path}"
  [[ -f "${COMPARE}" ]] || { echo "no such snapshot: ${COMPARE}" >&2; exit 1; }
  shift 2
fi

BENCHTIME="${1:-5x}"
COUNT=6
BENCH_RE='Flow|STAReuse|BuildDEF|BuildTree|SweepShared|SweepFreq|VariationMC|ServeSweep'

echo "== go vet =="
go vet ./...

echo "== tier-1: go build && go test =="
go build ./...
go test ./...

echo "== benchmarks (${BENCH_RE}, -benchtime=${BENCHTIME} -count=${COUNT}) =="
# Fail fast: a failing bench run (build error, panicking benchmark) must
# exit non-zero without leaving a partial BENCH_<date>.json behind, so
# the snapshot is written to a temp file and only moved into place after
# the run succeeded and at least one benchmark row parsed.
if ! BENCH_OUT="$(go test -run=NONE -bench="${BENCH_RE}" -benchmem -benchtime="${BENCHTIME}" -count="${COUNT}" . ./internal/core ./internal/route ./internal/serve 2>&1)"; then
  echo "${BENCH_OUT}"
  echo "bench run failed; no snapshot written" >&2
  exit 1
fi
echo "${BENCH_OUT}"

DATE="$(date +%Y%m%d)"
COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
SNAPSHOT="BENCH_${DATE}.json"
TMP_SNAPSHOT="$(mktemp "${SNAPSHOT}.XXXXXX.tmp")"
trap 'rm -f "${TMP_SNAPSHOT}"' EXIT

# Parse benchmark rows into JSON, one row per benchmark summarizing its
# COUNT runs. Benchmarks that print tables interleave their output
# between the name and the timing fields, so remember the last seen
# Benchmark name and attach it to the next "ns/op" line.
echo "${BENCH_OUT}" | awk -v date="${DATE}" -v commit="${COMMIT}" -v count="${COUNT}" -v benchtime="${BENCHTIME}" '
# add appends value v to series key k (a name SUBSEP metric pair).
function add(k, v) { val[k, ++cnt[k]] = v }
# quantile returns the p-quantile of series k by linear interpolation
# between closest ranks (numpy default), sorting the series in place.
function quantile(k, p,    n, i, j, t, h, lo) {
    n = cnt[k]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && val[k, j-1] + 0 > val[k, j] + 0; j--) {
            t = val[k, j]; val[k, j] = val[k, j-1]; val[k, j-1] = t
        }
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return val[k, n] + 0
    return val[k, lo] + (h - lo) * (val[k, lo+1] - val[k, lo])
}
/^Benchmark/ { name = $1; sub(/-[0-9]+$/, "", name) }
/ ns\/op/ {
    if (name == "") next
    ns = ""
    for (i = 1; i < NF; i++) if ($(i+1) == "ns/op") ns = $i
    if (ns == "") next
    if (!(name in seen)) { seen[name] = 1; order[++nb] = name }
    for (i = 1; i < NF; i++) {
        unit = $(i+1)
        if (unit == "ns/op")          add(name SUBSEP "ns_op", $i)
        else if (unit == "B/op")      add(name SUBSEP "b_op", $i)
        else if (unit == "allocs/op") add(name SUBSEP "allocs_op", $i)
        else if (unit ~ /^[A-Za-z][A-Za-z0-9._]*\/[A-Za-z]/ && $i ~ /^[0-9.]+$/) {
            # Custom b.ReportMetric unit (e.g. samples/sec): keep it under
            # a sanitized key so snapshots stay plain JSON.
            gsub(/[^A-Za-z0-9]/, "_", unit)
            if (!((name, unit) in extra)) { extra[name, unit] = 1; extras[name] = extras[name] " " unit }
            add(name SUBSEP unit, $i)
        }
    }
    name = ""
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"count\": %d,\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [", date, commit, count, benchtime
    for (b = 1; b <= nb; b++) {
        name = order[b]
        k = name SUBSEP "ns_op"
        q1 = quantile(k, 0.25); med = quantile(k, 0.5); q3 = quantile(k, 0.75)
        printf "%s\n    {\"name\": \"%s\", \"runs\": %d, \"ns_op_median\": %.0f, \"ns_op_iqr\": %.0f, \"ns_op_q1\": %.0f, \"ns_op_q3\": %.0f", (b > 1 ? "," : ""), name, cnt[k], med, q3 - q1, q1, q3
        if (cnt[name, "b_op"])      printf ", \"b_op_median\": %.0f", quantile(name SUBSEP "b_op", 0.5)
        if (cnt[name, "allocs_op"]) printf ", \"allocs_op_median\": %.0f", quantile(name SUBSEP "allocs_op", 0.5)
        ne = split(extras[name], units, " ")
        for (e = 1; e <= ne; e++)
            printf ", \"%s_median\": %.6g", units[e], quantile(name SUBSEP units[e], 0.5)
        printf "}"
    }
    printf "\n  ]\n}\n"
}
' > "${TMP_SNAPSHOT}"

# Refuse to publish a snapshot that parsed no benchmark rows — that means
# the awk scrape broke or the bench filter matched nothing.
if ! grep -q '"ns_op_median"' "${TMP_SNAPSHOT}"; then
  echo "no benchmark rows parsed; no snapshot written" >&2
  exit 1
fi
mv "${TMP_SNAPSHOT}" "${SNAPSHOT}"
trap - EXIT

echo "== snapshot: ${SNAPSHOT} =="
cat "${SNAPSHOT}"

# Snapshot rows are one benchmark per line, so the comparison scrapes
# them with awk instead of requiring a JSON tool in the image.
if [[ -n "${COMPARE}" ]]; then
  echo "== compare medians: ${COMPARE} -> ${SNAPSHOT} =="
  awk '
  function field(line, key,    v) {
      if (match(line, "\"" key "\": [0-9.e+-]+")) {
          v = substr(line, RSTART, RLENGTH)
          sub(".*: ", "", v)
          return v
      }
      return ""
  }
  # stat reads a median field, falling back to the single-value key of
  # snapshots written before the median format.
  function stat(line, key,    v) {
      v = field(line, key "_median")
      return v != "" ? v : field(line, key)
  }
  function pct(old, new) {
      return (old != "" && new != "" && old > 0) ? sprintf("%+.1f%%", 100 * (new - old) / old) : "n/a"
  }
  /"name":/ {
      line = $0
      match(line, /"name": "[^"]+"/)
      name = substr(line, RSTART + 9, RLENGTH - 10)
      if (NR == FNR) {
          old_ns[name] = stat(line, "ns_op")
          old_iqr[name] = field(line, "ns_op_iqr")
          old_al[name] = stat(line, "allocs_op")
          old_sp[name] = stat(line, "samples_sec")
          next
      }
      ns = stat(line, "ns_op"); iqr = field(line, "ns_op_iqr")
      al = stat(line, "allocs_op"); sp = stat(line, "samples_sec")
      printf "%-50s ns/op %12s -> %12s (%s) IQR %s -> %s   allocs/op %8s -> %8s (%s)",
          name, old_ns[name], ns, pct(old_ns[name], ns),
          (old_iqr[name] != "" ? old_iqr[name] : "n/a"), (iqr != "" ? iqr : "n/a"),
          old_al[name], al, pct(old_al[name], al)
      if (sp != "" && old_sp[name] != "")
          printf "   samples/sec %s -> %s (%s)", old_sp[name], sp, pct(old_sp[name], sp)
      printf "\n"
  }
  ' "${COMPARE}" "${SNAPSHOT}"
fi

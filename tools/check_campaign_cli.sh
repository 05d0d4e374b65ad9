#!/usr/bin/env bash
# Shard-fabric CLI battery (ctest campaign.cli). Usage:
#   check_campaign_cli.sh <path-to-coredis_campaign>
# On a small version of CI's shard_grid campaign, every way to shard it —
# --workers 2; --workers 2 --deal static; --worker 0/2 + --worker 1/2 +
# --merge 2; and a --worker 0/2 shard torn mid-record, then --resume and
# --merge 2 — must cmp-match the single-process artifact, --merge
# must refuse (naming the file) a shard under the retired header shape,
# and malformed numeric flags must be refused before anything runs.
set -u
campaign="${1:?usage: check_campaign_cli.sh <coredis_campaign>}"
campaign="$(cd "$(dirname "$campaign")" && pwd)/$(basename "$campaign")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() { echo "check_campaign_cli: $*" >&2; exit 1; }
run() {
  "$campaign" --campaign grid.txt "$@" > /dev/null 2> last.err ||
    fail "coredis_campaign $* failed: $(cat last.err)"
}
same() { cmp -s single.jsonl "$1" || fail "$2 differs from a single process"; }

cat > grid.txt <<'EOF'
n = 20
p = 80
runs = 12
seed = 20260726
mtbf_years = 5
fault_law = exponential, weibull
configs = baseline, ig_local
EOF

run --out single.jsonl
run --out dealt.jsonl --workers 2
same dealt.jsonl "--workers 2"
run --out static.jsonl --workers 2 --deal static
same static.jsonl "--workers 2 --deal static"
run --out split.jsonl --worker 0/2
run --out split.jsonl --worker 1/2
run --out split.jsonl --merge 2
same split.jsonl "--worker 0/2 + --worker 1/2 + --merge 2"

# A worker killed mid-append leaves an unterminated record: keep the
# header and the first record, then half of the second.
cp split.shard1of2.jsonl torn.shard1of2.jsonl
keep=$(head -n 2 split.shard0of2.jsonl | wc -c)
next=$(sed -n 3p split.shard0of2.jsonl | wc -c)
head -c $((keep + next / 2)) split.shard0of2.jsonl > torn.shard0of2.jsonl
run --out torn.jsonl --worker 0/2 --resume
cmp -s split.shard0of2.jsonl torn.shard0of2.jsonl ||
  fail "--worker 0/2 --resume did not rebuild the shard's bytes"
run --out torn.jsonl --merge 2
same torn.jsonl "a torn --worker 0/2 after --resume + --merge 2"

# The retired fixed-range header: the current key with its "_deal"
# suffix swapped for "_shard", plus the old shard/begin/end fields.
cp split.shard0of2.jsonl legacy.shard0of2.jsonl
sed -e '1s/_deal":1,\("fingerprint":"[0-9a-f]*"\),"worker":/_shard":1,\1,"shard":/' \
  -e '1s/"workers":2,/"workers":2,"begin":12,"end":24,/' \
  split.shard1of2.jsonl > legacy.shard1of2.jsonl
grep -q '_shard":1,.*"shard":1,"workers":2,"begin":12' legacy.shard1of2.jsonl ||
  fail "could not rewrite the header into the legacy shape"
if "$campaign" --campaign grid.txt --out legacy.jsonl --merge 2 2> legacy.err \
    > /dev/null; then
  fail "--merge accepted a legacy static-shard header"
fi
grep -q "legacy.shard1of2.jsonl" legacy.err ||
  fail "the legacy-header refusal does not name the file: $(cat legacy.err)"
[ ! -e legacy.jsonl ] || fail "a refused merge left legacy.jsonl behind"

# Numeric flags parse the whole token: a value with trailing junk is
# refused, naming the flag and the value, before any output is written.
for bad in "--threads 2x" "--workers 2junk" "--spill-mb 3.9"; do
  flag="${bad% *}" value="${bad#* }"
  if "$campaign" --campaign grid.txt --out junk.jsonl "$flag" "$value" \
      2> junk.err > /dev/null; then
    fail "$bad was accepted"
  fi
  grep -q -- "$flag expects an integer, got '$value'" junk.err ||
    fail "the $bad refusal does not name the flag and value: $(cat junk.err)"
  [ ! -e junk.jsonl ] || fail "a refused $bad left junk.jsonl behind"
done
echo "campaign cli battery OK"

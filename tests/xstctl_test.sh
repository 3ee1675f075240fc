#!/bin/sh
# Drives the xstctl binary end to end on a fresh store: put, put_indexed,
# run (a bind that shadows a stored set, a range over a stored index, and
# the verification of every statement it runs), explain (with and without
# --optimize), verify, scrub and stats, and an unknown flag's exit code.
#
# usage: xstctl_test.sh <xstctl-binary> <scratch-dir>
set -u
xstctl=$1
dir=$2
store=$dir/store.db
rm -rf "$dir" && mkdir -p "$dir" || exit 1

fail() {
  printf 'FAIL: %s\n' "$*" >&2
  exit 1
}

# expect <what> <expected> <actual>
expect() {
  [ "$2" = "$3" ] || fail "$1: expected
$2
--- got
$3"
}

out=$("$xstctl" "$store" put edges '{<b, c>, <a, b>}') || fail "put exited $?"
expect put "stored 'edges' (2 memberships)" "$out"
out=$("$xstctl" "$store" put_indexed links '{<1, x>, <2, y>, <3, z>, <4, w>}') ||
  fail "put_indexed exited $?"
expect put_indexed "indexed 'links' (4 memberships)" "$out"

cat > "$dir/script.xsp" <<'XSP'
@edges
# from here on, @edges is the script's binding, not the stored set
edges = {<z, z>}
@edges
image[<1>, <2>](@edges, {<z>})
range[<2, a>, <3, zz>](@links)
XSP
out=$("$xstctl" "$store" run "$dir/script.xsp") || fail "run exited $?"
expect run "{<a, b>, <b, c>}
{<z, z>}
{<z>}
{<2, y>, <3, z>}" "$out"

# run verifies each statement's program before the VM runs it, in every
# build type; the metrics dump counts at least one verification per
# statement (builds that also verify inside the VM count two).
XST_METRICS_OUT="$dir/metrics.json" "$xstctl" "$store" run "$dir/script.xsp" > /dev/null ||
  fail "run with XST_METRICS_OUT exited $?"
verified=$(sed -n 's/^ *"xsp\.verify\.programs": \([0-9]*\).*/\1/p' "$dir/metrics.json")
[ "${verified:-0}" -ge 5 ] ||
  fail "run verified ${verified:-no} programs for its 5 statements"

# EXPLAIN ANALYZE: one row per VM instruction, labelled by the typed
# listing. Times vary, so keep each row's label and row count only.
rows() { sed -e 's/ wall=.*$//' -e 's/^total: [0-9]*ns/total:/'; }
out=$("$xstctl" "$store" explain 'image[<1>, <2>](@links, {<2>})') ||
  fail "explain exited $?"
expect explain "VmProgram[6]  (rows=1
  0: LoadBinding r0 <- @links   ; -> r0:span  (rows=4
  1: LoadLiteral r1 <- {<2>}   ; -> r1:handle  (rows=1
  2: Materialize r0   ; r0:span -> r0:materialized  (rows=4
  3: Materialize r1   ; r1:handle -> r1:materialized  (rows=1
  4: Index r2 <- r0[r1] sigma#0   ; r0:materialized, r1:materialized -> r2:handle  (rows=1
  5: Materialize r2   ; r2:handle -> r2:materialized  (rows=1
total:, 6 nodes, intermediate rows: 0" "$(printf '%s\n' "$out" | rows)"

# explain binds the stored sets a plan names, so the optimizer's R2
# rewrite composes the two stored hops into one literal.
out=$("$xstctl" "$store" explain \
  'image[<1>, <2>](@edges, image[<1>, <2>](@edges, {<a>}))' --optimize) ||
  fail "explain --optimize exited $?"
expect "explain --optimize" "  0: LoadLiteral r0 <- {<a, c>}   ; -> r0:handle  (rows=1" \
  "$(printf '%s\n' "$out" | rows | sed -n 2p)"

out=$("$xstctl" "$store" verify "$dir/script.xsp") || fail "verify exited $?"
expect verify "verify OK: 5 statement(s)" "$(printf '%s\n' "$out" | tail -n 1)"

out=$("$xstctl" "$store" scrub) || fail "scrub exited $?"
expect scrub "scrub clean: 2 sets verified" "$out"

out=$("$xstctl" "$store" stats) || fail "stats exited $?"
expect stats "sets:       2 (blob: 1, ordered-index: 1)" \
  "$(printf '%s\n' "$out" | grep '^sets:')"

# There is one engine: the removed selector flag is an unknown flag.
selector="--engine"=vm
for command in run explain; do
  "$xstctl" "$store" $command "$dir/script.xsp" "$selector" 2> "$dir/err" > /dev/null
  status=$?
  expect "$command $selector exit code" 1 "$status"
  grep -q "unknown flag '$selector'" "$dir/err" ||
    fail "$command $selector: no unknown-flag message"
done

rm -rf "$dir"
echo "xstctl_test: OK"

#!/usr/bin/env bash
# Panic-hygiene ratchet: counts panic-family call sites (panic!, unwrap,
# expect, unreachable!, todo!) in each crate's src/ and fails if any crate
# exceeds its checked-in budget. The budgets are the current counts —
# including #[cfg(test)] unit-test modules, which keeps the script a dumb
# grep — so new panics in library code fail CI, and the numbers may only
# be ratcheted *down* as code is converted to located diagnostics.
#
# On failure the offending file:line sites are printed so the author can
# see exactly which call pushed the crate over budget instead of
# re-running the grep by hand.
#
# Exit status: 0 all within budget, 1 over budget, 2 a budgeted crate
# directory disappeared (rename the entry rather than silently skipping —
# a vanished dir would otherwise let its panics escape the ratchet).
#
# Usage: ci/panic_budget.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\('

# crate-dir budget
BUDGETS="
autovec 39
bench 27
core 80
criterion_compat 0
fuzz 20
proptest_compat 2
psimc 26
psir 104
rand_compat 0
serve 79
shapecheck 9
suite 19
telemetry 18
vmach 14
vmath 10
"

fail=0
missing=0
while read -r crate budget; do
  [ -z "$crate" ] && continue
  src="crates/$crate/src"
  if [ ! -d "$src" ]; then
    echo "panic_budget: budgeted directory $src no longer exists —" \
         "update or remove its BUDGETS entry" >&2
    missing=1
    continue
  fi
  sites=$(grep -rEn "$PATTERN" "$src" --include='*.rs' 2>/dev/null \
            | grep -v '^\s*//' || true)
  if [ -z "$sites" ]; then
    count=0
  else
    count=$(printf '%s\n' "$sites" | wc -l)
  fi
  if [ "$count" -gt "$budget" ]; then
    echo "panic_budget: crates/$crate has $count panic-family sites (budget $budget)" >&2
    echo "  convert new failures to telemetry::Diagnostic instead (DESIGN.md §9)" >&2
    echo "  offending sites:" >&2
    printf '%s\n' "$sites" | sed -E 's/:([0-9]+):.*/:\1/' | sort -u \
      | sed 's/^/    /' >&2
    fail=1
  elif [ "$count" -lt "$budget" ]; then
    echo "panic_budget: crates/$crate improved to $count (budget $budget) — ratchet the budget down"
  else
    echo "panic_budget: crates/$crate ok ($count/$budget)"
  fi
done <<EOF
$BUDGETS
EOF

[ "$missing" -ne 0 ] && exit 2
exit $fail

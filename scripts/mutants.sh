#!/usr/bin/env bash
# Mutation check: does some test fail when a guarded line is broken?
#
# Each named mutation replaces one source line fragment in a scratch
# copy of the working tree, runs the tests meant to catch it, and then
# puts the line back. A mutation the tests do not catch "survives"; the
# survivors are listed at the end and the script exits 1 if any exist.
# The working tree itself is never modified.
#
# Usage:
#   scripts/mutants.sh            # every mutation
#   scripts/mutants.sh NAME...    # only these
#   scripts/mutants.sh --list     # names and the tests each one runs
#
# The scratch copy lives under ${TMPDIR:-/tmp} and is removed on exit
# unless MUTANTS_KEEP=1. Mutants share one copy and one target dir, so
# each one rebuilds only the crates its file touches. Not part of
# ci.sh: a full run takes several minutes of debug builds.
set -euo pipefail

# name | file | fragment to find (must match exactly one line) |
# replacement | cargo test arguments, one run per ';'-separated group
# (the mutant is killed when any run fails)
MUTANTS=(
    "checkpoint-removed|crates/service/src/service.rs|chain.checkpoint();|{}|--test service_recovery --test service_fleet"
    "outstanding-dropped-on-restore|crates/service/src/snapshot.rs|outstanding: rec.outstanding,|outstanding: None,|--test service_recovery"
    "deadlines-not-rearmed|crates/service/src/service.rs|if let Some(t) = self.devices[slot].outstanding.as_ref().map(\|o\| o.deadline) {|if let Some(t) = None::<u64> {|--test service_recovery"
    "newest-root-check-skipped|crates/service/src/snapshot.rs|if tree.root() != newest.root {|if false && tree.root() != newest.root {|--test service_recovery"
    "snapshot-finish-skipped|crates/service/src/snapshot.rs|    r.finish()?;|    let _ = r;|-p sage-service --lib snapshot::;-p sage-service --test wire_fuzz;--test service_recovery"
    "wire-name-bound-removed|crates/service/src/wire.rs|if len as usize > MAX_NAME {|if false && len as usize > MAX_NAME {|-p sage-service --lib wire::;-p sage-service --test wire_fuzz"
    "canon-field-bound-ignored|crates/crypto/src/canon.rs|if len as usize > MAX_FIELD_LEN {|if false && len as usize > MAX_FIELD_LEN {|-p sage-crypto --lib canon::;-p sage-service --lib wire::"
    "long-name-admitted|crates/service/src/service.rs|member.name.len() <= wire::MAX_NAME,|true,|-p sage-service --lib service::"
    "quorum-threshold-off-by-one|crates/service/src/quorum.rs|((2 * u32::from(n)).div_ceil(3)) as u16|((2 * u32::from(n)).div_ceil(3)) as u16 - 1|-p sage-service --lib quorum::;--test quorum_sampling"
    "skip-rule-not-trusted-only|crates/service/src/service.rs|cfg.epoch_interval > 0 && d.state == DeviceState::Trusted {|cfg.epoch_interval > 0 {|--test quorum_sampling;--test attack_matrix"
    "relay-gate-ignored|crates/service/src/quorum.rs|if wire > rtt_gate {|if false && wire > rtt_gate {|-p sage-service --lib quorum::;--test attack_matrix"
    "suffix-link-check-skipped|crates/evidence/src/chain.rs|if rec.prev != head {|if false && rec.prev != head {|-p sage-evidence"
    "timing-threshold-exclusive|crates/core/src/timing.rs|measured <= self.threshold()|measured < self.threshold()|-p sage --lib timing::"
    "verdicts-in-roster-order|crates/service/src/service.rs|for (slot, env) in responses {|responses.sort_by_key(\|r\| self.roster_pos[r.0]); for (slot, env) in responses {|--test history_golden"
    "service-verdict-skips-replay|crates/service/src/service.rs|match d.verifier.check_response(&o.challenges, checksum, measured) {|match d.verifier.check_response_precomputed(checksum, checksum, measured) {|--test attack_matrix"
    "evidence-payload-byte-flipped|crates/evidence/src/chain.rs|self.hasher.update(&rec.encode());|self.hasher.update(&{ let mut b = rec.encode(); b[17] ^= 1; b });|--test history_golden"
)

field() { # field INDEX ENTRY — '|' separates fields, '\|' is a literal bar
    local entry=${2//\\|/$'\x1f'}
    local IFS='|'
    # shellcheck disable=SC2206
    local parts=($entry)
    printf '%s' "${parts[$1]//$'\x1f'/|}"
}

if [[ ${1:-} == --list ]]; then
    for m in "${MUTANTS[@]}"; do
        runs=$(field 4 "$m")
        printf '%-32s cargo test %s\n' "$(field 0 "$m")" "${runs//;/; cargo test }"
    done
    exit 0
fi

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/sage-mutants.XXXXXX")
trap '[[ ${MUTANTS_KEEP:-0} == 1 ]] || rm -rf "$work"' EXIT
echo "==> copying the working tree to $work"
tar -C "$root" --exclude=./target --exclude=./perfbench/target -cf - . | tar -C "$work/" -xf -
export CARGO_TARGET_DIR="$work/target"

wanted=("$@")
survivors=()
for m in "${MUTANTS[@]}"; do
    name=$(field 0 "$m")
    file=$(field 1 "$m")
    from=$(field 2 "$m")
    to=$(field 3 "$m")
    IFS=';' read -r -a runs <<<"$(field 4 "$m")"
    if ((${#wanted[@]})) && [[ " ${wanted[*]} " != *" $name "* ]]; then
        continue
    fi
    path="$work/$file"
    hits=$(grep -cF -- "$from" "$path" || true)
    if [[ $hits != 1 ]]; then
        echo "!! $name: fragment matches $hits lines of $file; fix the mutation table" >&2
        exit 2
    fi
    cp "$path" "$path.orig"
    original=$(<"$path")
    printf '%s\n' "${original/"$from"/"$to"}" >"$path"
    echo "==> $name"
    killed_by=""
    for run in "${runs[@]}"; do
        read -r -a args <<<"$run"
        # A mutant that does not build says nothing about the tests.
        if ! (cd "$work" && cargo test -q --no-run "${args[@]}" >>"$work/$name.log" 2>&1); then
            echo "!! $name does not build (log: $work/$name.log); fix the mutation table" >&2
            MUTANTS_KEEP=1
            exit 2
        fi
        if ! (cd "$work" && cargo test -q "${args[@]}" >>"$work/$name.log" 2>&1); then
            killed_by="cargo test $run"
            break
        fi
    done
    if [[ -n $killed_by ]]; then
        echo "    killed by: $killed_by"
    else
        echo "    SURVIVED (log: $work/$name.log)"
        survivors+=("$name")
    fi
    mv "$path.orig" "$path"
done

if ((${#survivors[@]})); then
    echo "survivors: ${survivors[*]}"
    exit 1
fi
echo "no survivors"

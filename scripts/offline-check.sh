#!/usr/bin/env bash
# Build and test without network access, and give a verdict.
#
# The crates.io dependencies resolve to the stand-ins in dev/stubs/ through
# `--config crates/perf/offline.toml` (the one place the stub list lives; it
# is only read here). Every test target — each package's unit tests, each
# file under tests/ — runs on its own, so one target that cannot pass
# against the stubs does not hide the rest. The tests known to need the real
# crates (the serde_json stand-in panics at run time; see
# dev/stubs/README.md) are skipped by name, listed below. Doc-tests and
# Criterion benches are not run.
#
# Prints one row per target (passed / failed / skipped) and exits non-zero
# if anything outside the skip list fails or does not build.
#
# Usage: scripts/offline-check.sh [target ...]     e.g. prov-query ingest_scaling
set -uo pipefail
cd "$(dirname "$0")/.."

OFFLINE=(--config crates/perf/offline.toml)

# `<target> <test path>`: tests that drive serde_json (or rand) for real.
# A target is a package name (its unit tests) or a file stem under tests/.
SKIPS='
bench experiments::tests::e4_all_backends_report
bench experiments::tests::e9_accuracy_reasonable
prov-core annotation::tests::store_roundtrips_serde
prov-core model::tests::retro_roundtrips_json
prov-core opm::tests::opm_roundtrips_json_and_reindexes
prov-core publication::tests::research_object_roundtrips_json
prov-evolution action::tests::actions_roundtrip_serde
prov-interop dialect::tests::dialects_serialize
prov-social corpus::tests::corpus_is_deterministic
prov-social corpus::tests::corpus_has_varied_shapes
prov-social corpus::tests::corpus_workflows_are_valid_dags
prov-social mine::tests::histogram_is_followed_by_plot
prov-social mine::tests::mining_counts_pairs_and_triples
prov-social mine::tests::more_data_does_not_hurt_much
prov-social mine::tests::recommender_beats_chance_on_heldout_corpus
prov-social mine::tests::triple_conditioning_beats_or_equals_pairs
prov-social repo::tests::repo_roundtrips_serde
prov-store logstore::tests::append_and_replay_roundtrip
prov-store logstore::tests::compaction_keeps_latest_per_exec
prov-store logstore::tests::corrupt_crc_detected
prov-store logstore::tests::ephemeral_store_matches_file_backed_answers
prov-store logstore::tests::log_store_answers_canned_queries_like_graph_store
prov-store logstore::tests::reopen_restores_records
prov-store logstore::tests::reopened_store_rebuilds_offset_indexes
prov-store logstore::tests::truncated_tail_is_discarded
wf-model ident::tests::ids_roundtrip_serde
wf-model catalog::tests::catalog_roundtrips_serde
wf-model module::tests::kind_roundtrips_serde
wf-model types::tests::serde_roundtrip
wf-model workflow::tests::json_roundtrip_preserves_everything
cli demo_validate_run_query_roundtrip
cli failing_workflow_reports_and_captures
cli explain_prints_plan_analyze_stats_and_backend_reports
cli invalid_workflow_is_rejected
cli metrics_prints_prometheus_text
cli lineage_finds_upstream_of_saved_file
cli profile_reports_critical_path_and_utilization_from_stored_provenance
cli query_across_multiple_provenance_files
cli slowlog_retains_queries_and_writes_jsonl
cli trace_exports_a_valid_chrome_trace_with_span_log
end_to_end annotations_survive_serde_with_full_bundle
end_to_end all_four_stores_agree_on_figure1_queries
end_to_end research_object_full_cycle
property_model dtype_serde_roundtrip
property_model param_value_serde_roundtrip
property_model workflow_edit_sequences_keep_dag
property_provenance retrospective_provenance_roundtrips_json
'

ROWS=()
FAILED=0

# run <target> <cargo test selector...>
run() {
    local target=$1 skipped=0 out status passed failed verdict
    shift
    local args=()
    while read -r of test; do
        if [ "$of" = "$target" ]; then
            args+=(--skip "$test")
            skipped=$((skipped + 1))
        fi
    done <<<"$SKIPS"
    [ "$skipped" -gt 0 ] && args+=(--exact)
    out=$(cargo test -q "${OFFLINE[@]}" "$@" -- ${args[@]+"${args[@]}"} 2>&1)
    status=$?
    passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' <<<"$out")
    failed=$(awk '/^test result:/ { n += $6 } END { print n + 0 }' <<<"$out")
    if [ "$status" -eq 0 ]; then
        verdict=ok
    else
        verdict=FAILED
        FAILED=$((FAILED + 1))
        grep -q "^test result:" <<<"$out" || failed="no build"
        grep -E "^error|^test .* FAILED$|panicked at" <<<"$out" | head -20 >&2
    fi
    ROWS+=("$(printf '%-22s %7s %9s %8s  %s' "$target" "$passed" "$failed" "$skipped" "$verdict")")
}

wanted() {
    [ "${#ONLY[@]}" -eq 0 ] && return 0
    local t
    for t in "${ONLY[@]}"; do [ "$t" = "$1" ] && return 0; done
    return 1
}
ONLY=("$@")

echo "==> cargo check (libs + bins)"
cargo check -q "${OFFLINE[@]}" --workspace --lib --bins || exit 1

for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)
    if wanted "$pkg"; then
        echo "==> $pkg (unit tests)"
        if [ -f "$dir/src/lib.rs" ]; then
            run "$pkg" -p "$pkg" --lib
        else
            run "$pkg" -p "$pkg" --bins
        fi
    fi
    for file in "$dir"/tests/*.rs; do
        [ -f "$file" ] || continue
        stem=$(basename "$file" .rs)
        wanted "$stem" || continue
        echo "==> $stem (tests/$stem.rs)"
        run "$stem" -p "$pkg" --test "$stem"
    done
done

printf '\n%-22s %7s %9s %8s\n' target passed failed skipped
printf '%s\n' "${ROWS[@]}"
if [ "$FAILED" -gt 0 ]; then
    echo "offline check: $FAILED target(s) FAILED outside the skip list"
    exit 1
fi
echo "offline check passed (skipped tests need the real serde_json / rand)."

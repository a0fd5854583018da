#!/usr/bin/env bash
# Repo CI gate, as a staged pipeline. Each stage is named, timed, and runs
# under a hard wall-clock limit (`timeout --foreground`): a stuck stage —
# a hung replica, a divergent chase, a deadlocked server — FAILS with
# its elapsed time in the summary instead of hanging the pipeline. The
# script always ends with a per-stage pass/fail summary; on failure the
# summary shows exactly which stage died and how long it ran, and any
# reports/traces produced so far are copied to $CI_ARTIFACTS (when set)
# for upload.
#
# Stages (limit in seconds):
#   static  (300) — gofmt, build, vet, docs-freshness greps (event,
#                   counter and package vocabularies, tdserve's flags;
#                   no deleted event type left in the docs)
#   unit    (600) — full test suite, -count=1 (no cached results), plus
#                   the perfbench module's own vet and tests
#   race    (900) — full suite under the race detector (the serving
#                   layer's singleflight/drain paths, the peer ring and
#                   the corpus and fuzz worker pools are concurrent code)
#   smoke   (300) — end-to-end binaries: tdinfer governed runs on the
#                   undecidable gap preset (a deadline stop with the
#                   finite-db arm held to size 1, and the portfolio's
#                   finite-db answer at the default sizes);
#                   tdserve under a duplicate-heavy tdbench -loadjson
#                   burst, served derivation certificates for collapse:4
#                   (kb) and a Turing-machine instance (the derivation
#                   arm) checked by tdcheck (needs jq), a preset past
#                   its family's cap refused with a 400, a golden chase
#                   trace of chain:1, and graceful-drain assertions
#   shard   (300) — the multi-replica tier: 3 tdserve replicas with disk
#                   stores and a consistent-hash ring,
#                   certificate-verified peer fills under a burst, then a
#                   kill+restart with the first repeat served from the
#                   store (no recompute); and a replica on a copy of a
#                   committed TDVSTOR1 log answering every key it holds
#                   from the store and rewriting it as TDVSTOR2
#   bench   (900) — structural validation of the benchmark emitters:
#                   fresh -searchjson, -portfoliojson, and -shardjson
#                   reports plus the committed BENCH_chase.json,
#                   BENCH_portfolio.json, and BENCH_serve.json
#   fuzz    (600) — the continuous differential gate: a fresh seeded
#                   ~100-instance corpus through every engine with zero
#                   cross-engine disagreements, zero oracle mismatches,
#                   and every definitive verdict certified, plus the
#                   committed BENCH_fuzz.json revalidated
set -euo pipefail
cd "$(dirname "$0")"

SUMMARY=()
CURRENT_STAGE=""
STAGE_START=0
smoke=$(mktemp -d)
export smoke

on_exit() {
    local rc=$?
    # Stage bodies run in child shells; anything they left behind (tdserve
    # replicas, a hung tdbench) runs a binary built under $smoke, so this
    # sweep is exact.
    pkill -f "$smoke/" 2>/dev/null || true
    if [[ $rc -ne 0 && -n "${CI_ARTIFACTS:-}" ]]; then
        mkdir -p "$CI_ARTIFACTS"
        (cd "$smoke" && find . -type f \( -name '*.json' -o -name '*.jsonl' -o -name '*.out' \) \
            -exec cp --parents -t "$CI_ARTIFACTS" {} +) 2>/dev/null || true
    fi
    rm -rf "$smoke"
    if [[ $rc -ne 0 && -n "$CURRENT_STAGE" ]]; then
        SUMMARY+=("$(printf '%-8s FAIL  %4ds' "$CURRENT_STAGE" $((SECONDS - STAGE_START)))")
    fi
    echo
    echo "ci summary:"
    printf '  %s\n' "${SUMMARY[@]}"
    if [[ $rc -eq 0 ]]; then
        echo "  all stages passed"
    else
        echo "  FAILED (exit $rc)"
    fi
}
trap on_exit EXIT

# run_stage NAME LIMIT FN runs stage function FN (exported below) in a
# child shell under a hard LIMIT-second timeout. rc 124/137 is the timeout
# itself (SIGTERM / the -k SIGKILL escalation); any nonzero rc fails the
# pipeline with the stage marked in the summary.
run_stage() {
    local name=$1 limit=$2 fn=$3 rc=0
    CURRENT_STAGE=$name
    STAGE_START=$SECONDS
    echo "=== stage: $name (limit ${limit}s)"
    timeout --foreground --kill-after=10 "$limit" bash -c "set -euo pipefail; $fn" || rc=$?
    local elapsed=$((SECONDS - STAGE_START))
    if [[ $rc -eq 124 || $rc -eq 137 ]]; then
        SUMMARY+=("$(printf '%-8s FAIL  %4ds (hit the %ss stage limit)' "$name" "$elapsed" "$limit")")
        CURRENT_STAGE=""
        echo "ci: stage $name exceeded its ${limit}s limit" >&2
        exit 1
    elif [[ $rc -ne 0 ]]; then
        SUMMARY+=("$(printf '%-8s FAIL  %4ds' "$name" "$elapsed")")
        CURRENT_STAGE=""
        exit "$rc"
    fi
    SUMMARY+=("$(printf '%-8s ok    %4ds' "$name" "$elapsed")")
    CURRENT_STAGE=""
}

stage_static() {
    local unformatted
    unformatted=$(gofmt -l .)
    if [[ -n "$unformatted" ]]; then
        echo "gofmt: the following files need formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi

    go build ./...
    go vet ./...

    # Docs freshness: every exported event type in internal/obs must be
    # documented in docs/OBSERVABILITY.md (both the Go constant and its wire
    # name), so the schema contract cannot silently drift from the code.
    while read -r const wire; do
        for token in "$const" "$wire"; do
            if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
                echo "docs/OBSERVABILITY.md: event type $token (from internal/obs/obs.go) is undocumented" >&2
                exit 1
            fi
        done
    done < <(sed -n 's/^\t\(Ev[A-Za-z0-9]*\) EventType = "\([a-z_]*\)"$/\1 \2/p' internal/obs/obs.go)

    # And the reverse: every backticked Ev* name in docs/OBSERVABILITY.md
    # (except the EventType type itself) must still be a constant in
    # internal/obs/obs.go, so a deleted event cannot linger in the docs.
    while read -r name; do
        if ! grep -qE -- "^[[:space:]]+$name EventType = " internal/obs/obs.go; then
            echo "docs/OBSERVABILITY.md: event type $name is not a constant in internal/obs/obs.go" >&2
            exit 1
        fi
    done < <(grep -o '`Ev[A-Za-z0-9]*`' docs/OBSERVABILITY.md | tr -d '`' | sort -u | grep -vx 'EventType')

    # Same freshness bar for the governor vocabulary: every resource meter and
    # stop reason internal/budget can put on the wire must appear in the event
    # schema docs.
    for token in rounds tuples nodes words rules context deadline; do
        if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
            echo "docs/OBSERVABILITY.md: budget resource/reason \"$token\" (from internal/budget) is undocumented" >&2
            exit 1
        fi
    done

    # And for the serving layer's counter vocabulary: every serve.* counter
    # the server bumps must appear in the schema docs.
    for token in serve.requests serve.cache_hits serve.cache_misses serve.dedups serve.shutdowns serve.cert_checked serve.cert_rejected \
        serve.store_hits serve.peer_fills serve.peer_ok serve.peer_rejected serve.peer_unknown serve.peer_down; do
        if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
            echo "docs/OBSERVABILITY.md: serve counter \"$token\" (from internal/serve) is undocumented" >&2
            exit 1
        fi
    done

    # The disk store's counter vocabulary gets the same freshness bar.
    for token in store.recovers store.recovered_records store.superseded_records store.dropped_bytes \
        store.puts store.put_skips store.written_bytes store.compactions store.reclaimed_bytes; do
        if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
            echo "docs/OBSERVABILITY.md: store counter \"$token\" (from internal/store) is undocumented" >&2
            exit 1
        fi
    done

    # The portfolio's reallocation vocabulary: the event type must be
    # documented in both the schema docs and the architecture map, and every
    # portfolio.* counter CounterSink maintains must appear in the schema
    # docs.
    for doc in docs/OBSERVABILITY.md docs/ARCHITECTURE.md; do
        if ! grep -q -- "portfolio_realloc" "$doc"; then
            echo "$doc: the portfolio_realloc event (from internal/portfolio) is undocumented" >&2
            exit 1
        fi
    done
    for token in portfolio.reallocs portfolio.granted portfolio.withheld portfolio.retired; do
        if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
            echo "docs/OBSERVABILITY.md: portfolio counter \"$token\" (from internal/obs) is undocumented" >&2
            exit 1
        fi
    done

    # The differential fuzzer's counter vocabulary: the per-family counter
    # is documented as a pattern, so grep for its stable prefix.
    for token in fuzz.cases fuzz.disagreements fuzz.family.; do
        if ! grep -q -- "$token" docs/OBSERVABILITY.md; then
            echo "docs/OBSERVABILITY.md: fuzz counter \"$token\" (from internal/obs) is undocumented" >&2
            exit 1
        fi
    done

    # tdserve's operator surface: every flag `tdserve -h` prints must be
    # documented in README.md.
    local flags
    flags=$(go run ./cmd/tdserve -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p')
    if [[ -z "$flags" ]]; then
        echo "tdserve -h printed no flags" >&2
        exit 1
    fi
    for flag in $flags; do
        if ! grep -qE -- "(^|[^a-z-])-$flag([^a-z-]|\$)" README.md; then
            echo "README.md: tdserve flag -$flag is undocumented" >&2
            exit 1
        fi
    done

    # The architecture map must cover every internal package and every
    # command, so the package inventory cannot silently drift from the tree.
    for pkg in internal/*/ cmd/*/; do
        name=$(basename "$pkg")
        if ! grep -q -- "$name" docs/ARCHITECTURE.md; then
            echo "docs/ARCHITECTURE.md: package $pkg is missing from the map" >&2
            exit 1
        fi
    done
}

stage_unit() {
    go test -count=1 ./...
    # perfbench is its own Go module (the end-to-end benchmark), so the
    # root ./... skips it; its tests feed every answer check a known-bad
    # input.
    (cd perfbench && go vet . && go test -count=1 .)
}

stage_race() {
    # The full suite again under the race detector. The serving layer's
    # singleflight/drain tests, the peer-fill ring tests and the corpus and
    # difffuzz worker pools all run real concurrency, so this sweep covers
    # every concurrent path in the repo. Each chase runs on its caller's
    # goroutine.
    go test -race -count=1 ./...
}

stage_smoke() {
    # Governance smoke: a wall-clock budget on the undecidable gap preset must
    # come back promptly (bounded cancellation latency), exit 0 with an honest
    # "unknown", and leave a trace that replays (the JSONL parses and carries
    # the chase's deadline stop marker). -cx-tuples 1: at the default sizes
    # the portfolio *answers* this instance (asserted below); held to size 1,
    # the finite-db arm covers its window and retires, so only the diverging
    # chase is left for the deadline to stop.
    go build -o "$smoke/tdinfer" ./cmd/tdinfer
    out=$("$smoke/tdinfer" -preset gap -cx-tuples 1 -deadline 100ms -rounds 100000 \
        -tuples 10000000 -trace "$smoke/gap.jsonl")
    grep -q "verdict: unknown" <<<"$out" || {
        echo "ci: gap smoke: expected unknown verdict, got:" >&2
        echo "$out" >&2
        exit 1
    }
    grep -q '"type":"cancelled","src":"chase".*"resource":"deadline"' "$smoke/gap.jsonl" || {
        echo "ci: gap smoke: trace has no chase deadline stop event" >&2
        exit 1
    }
    grep -q '"type":"verdict","src":"portfolio","verdict":"unknown"' "$smoke/gap.jsonl" || {
        echo "ci: gap smoke: trace does not close with an unknown portfolio verdict" >&2
        exit 1
    }

    # Portfolio smoke: at the default sizes the portfolio settles the same TD
    # instance — the finite-db arm finds the 2-tuple database a chase-first
    # sequential run never reaches (DESIGN.md §12) — and its trace carries
    # the reallocation decisions.
    out=$("$smoke/tdinfer" -preset gap -deadline 30s -trace "$smoke/gap_pf.jsonl")
    grep -q "verdict: finite-counterexample" <<<"$out" || {
        echo "ci: portfolio gap smoke: expected finite-counterexample, got:" >&2
        echo "$out" >&2
        exit 1
    }
    grep -q "winner: finite-db arm" <<<"$out" || {
        echo "ci: portfolio gap smoke: expected the finite-db arm to win, got:" >&2
        echo "$out" >&2
        exit 1
    }
    grep -q '"type":"portfolio_realloc"' "$smoke/gap_pf.jsonl" || {
        echo "ci: portfolio gap smoke: trace has no portfolio_realloc events" >&2
        exit 1
    }
    grep -q '"type":"verdict","src":"portfolio","verdict":"finite-counterexample"' "$smoke/gap_pf.jsonl" || {
        echo "ci: portfolio gap smoke: trace does not close with the portfolio verdict" >&2
        exit 1
    }

    # Certificate smoke: every definitive verdict carries a proof object the
    # standalone checker accepts with no engine in the loop (gap's database
    # counterexample through the portfolio, chain's chase proof), and a
    # single tampered byte is rejected with a nonzero exit.
    go build -o "$smoke/tdcheck" ./cmd/tdcheck
    "$smoke/tdinfer" -preset gap -deadline 30s -cert "$smoke/gap.cert.json" >/dev/null
    "$smoke/tdcheck" -verify "$smoke/gap.cert.json" >/dev/null || {
        echo "ci: cert smoke: gap certificate rejected" >&2
        exit 1
    }
    "$smoke/tdinfer" -preset chain:2 -cert "$smoke/chain.cert.json" >/dev/null
    "$smoke/tdcheck" -verify "$smoke/chain.cert.json" >/dev/null || {
        echo "ci: cert smoke: chain certificate rejected" >&2
        exit 1
    }
    sed 's/"version": 1/"version": 7/' "$smoke/chain.cert.json" >"$smoke/tampered.cert.json"
    if "$smoke/tdcheck" -verify "$smoke/tampered.cert.json" >/dev/null 2>&1; then
        echo "ci: cert smoke: tampered certificate was accepted" >&2
        exit 1
    fi

    # Parity smoke: a committed corpus independence atom that the chase
    # cannot close and the enumerator cannot reach settles through the
    # parity arm, and its finite-model certificate checks.
    out=$("$smoke/tdinfer" -schema A,B,C,D -deps testdata/oracle-1553.td \
        -goal "R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a0, b0, c0, d1)" \
        -cert "$smoke/parity.cert.json")
    grep -q "winner: parity arm" <<<"$out" || {
        echo "ci: parity smoke: expected the parity arm to win, got:" >&2
        echo "$out" >&2
        exit 1
    }
    "$smoke/tdcheck" -verify "$smoke/parity.cert.json" >/dev/null || {
        echo "ci: parity smoke: parity certificate rejected" >&2
        exit 1
    }

    # Golden chase smoke: the chase event stream is a pure function of the
    # problem, so the chain:1 run's chase events must match the committed
    # testdata/chase/chain1.jsonl byte for byte. The comparison filters to
    # the chase layer's own events.
    "$smoke/tdinfer" -preset chain:1 -rounds 64 -tuples 200000 \
        -trace "$smoke/chain.jsonl" >/dev/null
    grep '"src":"chase"' "$smoke/chain.jsonl" >"$smoke/chase.jsonl"
    cmp -s "$smoke/chase.jsonl" testdata/chase/chain1.jsonl || {
        echo "ci: golden smoke: chain:1 chase trace differs from testdata/chase/chain1.jsonl:" >&2
        diff "$smoke/chase.jsonl" testdata/chase/chain1.jsonl | head -20 >&2
        exit 1
    }

    # Serve smoke: start tdserve, fire a duplicate-heavy burst through
    # tdbench -loadjson (which itself fails on a zero hit rate or on verdict /
    # canonical-key inconsistency across repeats), then SIGTERM and assert a
    # clean drain: the "drained." line prints and the trace's final event is
    # the single serve_shutdown.
    go build -o "$smoke/tdbench" ./cmd/tdbench
    go build -o "$smoke/tdserve" ./cmd/tdserve
    # Create the output file first: the backgrounded shell opens it only
    # once it runs, and the polling sed below must not race that open.
    : >"$smoke/serve.out"
    "$smoke/tdserve" -addr 127.0.0.1:0 -request-timeout 2s \
        -trace "$smoke/serve.jsonl" >"$smoke/serve.out" 2>&1 &
    local srv_pid=$!
    local serve_addr=""
    for _ in $(seq 1 50); do
        serve_addr=$(sed -n 's/^tdserve: listening on //p' "$smoke/serve.out")
        [[ -n "$serve_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$serve_addr" ]] || {
        echo "ci: serve smoke: tdserve never reported its address:" >&2
        cat "$smoke/serve.out" >&2
        exit 1
    }
    "$smoke/tdbench" -loadjson "$smoke/load.json" -loadserver "http://$serve_addr" \
        -loadn 40 -loadc 8
    # Served derivation certificate: kb settles collapse:4 at its default
    # ceiling, and its derivation of A0 = 0 is the certificate. tdcheck
    # must accept it and reject a copy with one step's position moved.
    curl -sf -d '{"preset":"collapse:4"}' "http://$serve_addr/infer?cert=1" >"$smoke/collapse4.json" || {
        echo "ci: serve smoke: POST /infer?cert=1 for collapse:4 failed" >&2
        exit 1
    }
    [[ "$(jq -r '.verdict + " " + .cert.kind' "$smoke/collapse4.json")" == "implied derivation" ]] || {
        echo "ci: serve smoke: collapse:4 should be implied with a derivation certificate, got:" >&2
        head -c 400 "$smoke/collapse4.json" >&2
        exit 1
    }
    jq '.cert' "$smoke/collapse4.json" >"$smoke/collapse4.cert.json"
    "$smoke/tdcheck" -verify "$smoke/collapse4.cert.json" >/dev/null || {
        echo "ci: serve smoke: served collapse:4 certificate rejected" >&2
        exit 1
    }
    jq '.derivation.steps[0].pos += 1' "$smoke/collapse4.cert.json" >"$smoke/collapse4.tampered.json"
    if "$smoke/tdcheck" -verify "$smoke/collapse4.tampered.json" >/dev/null 2>&1; then
        echo "ci: serve smoke: a derivation with a moved step was accepted" >&2
        exit 1
    fi
    # Served TM instance: the Turing-machine encoding of a machine that
    # writes a 1 and halts, the reduction's kind of hard instance. kb never
    # completes on it; the derivation arm derives A0 = 0, and tdcheck must
    # accept that derivation as the certificate.
    curl -sf -d @testdata/tm-write-one.json "http://$serve_addr/infer?cert=1" >"$smoke/tm.json" || {
        echo "ci: serve smoke: POST /infer?cert=1 for the TM instance failed" >&2
        exit 1
    }
    [[ "$(jq -r '.verdict + " " + .winner + " " + .cert.kind' "$smoke/tm.json")" == "implied derivation derivation" ]] || {
        echo "ci: serve smoke: the TM instance should be implied, won by the derivation arm with a derivation certificate, got:" >&2
        head -c 400 "$smoke/tm.json" >&2
        exit 1
    }
    jq '.cert' "$smoke/tm.json" >"$smoke/tm.cert.json"
    "$smoke/tdcheck" -verify "$smoke/tm.cert.json" >/dev/null || {
        echo "ci: serve smoke: served TM certificate rejected" >&2
        exit 1
    }
    # Preset bound: a preset past its family's cap is refused with a 400
    # before it is built (chain:10000 canonicalizes for minutes).
    local code
    code=$(curl -s -m 10 -o /dev/null -w '%{http_code}' -d '{"preset":"chain:10000"}' \
        "http://$serve_addr/infer" || true)
    [[ "$code" == 400 ]] || {
        echo "ci: serve smoke: chain:10000 got status $code, want 400" >&2
        exit 1
    }
    kill -TERM "$srv_pid"
    wait "$srv_pid" || {
        echo "ci: serve smoke: tdserve exited nonzero:" >&2
        cat "$smoke/serve.out" >&2
        exit 1
    }
    grep -q '^tdserve: drained\.' "$smoke/serve.out" || {
        echo "ci: serve smoke: no drained line in tdserve output:" >&2
        cat "$smoke/serve.out" >&2
        exit 1
    }
    [[ "$(grep -c '"type":"serve_shutdown"' "$smoke/serve.jsonl")" == 1 ]] || {
        echo "ci: serve smoke: expected exactly one serve_shutdown event" >&2
        exit 1
    }
    tail -1 "$smoke/serve.jsonl" | grep -q '"type":"serve_shutdown"' || {
        echo "ci: serve smoke: trace does not end with serve_shutdown:" >&2
        tail -3 "$smoke/serve.jsonl" >&2
        exit 1
    }
}

stage_shard() {
    # Shard smoke: three real tdserve replicas share a temp store directory
    # (one append-log each) and split the canonical key-space by consistent
    # hashing over fixed local ports. A duplicate-heavy burst fired at
    # replica A must produce certificate-verified peer fills (keys owned by
    # the other replicas come back source "peer") and write-through store
    # puts; then replica A is SIGTERMed and restarted on the same log and
    # address, and a repeat of a previously-answered key must be served
    # from disk (source "store") with zero engine recomputes.
    local sharddir="$smoke/shard"
    mkdir -p "$sharddir"
    local shard_ports=(7471 7472 7473)
    local shard_peers="http://127.0.0.1:7471,http://127.0.0.1:7472,http://127.0.0.1:7473"
    local shard_pids=()
    start_replica() { # port; leaves the pid in $! for the caller
        "$smoke/tdserve" -addr "127.0.0.1:$1" -request-timeout 5s \
            -store "$sharddir/rep$1.log" \
            -peers "$shard_peers" -self "http://127.0.0.1:$1" \
            >>"$sharddir/rep$1.out" 2>&1 &
    }
    await_replica() { # port
        for _ in $(seq 1 100); do
            if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then
                return 0
            fi
            sleep 0.1
        done
        echo "ci: shard smoke: replica on port $1 never became healthy:" >&2
        cat "$sharddir/rep$1.out" >&2
        return 1
    }
    for i in 0 1 2; do
        start_replica "${shard_ports[$i]}"
        shard_pids[$i]=$!
    done
    for port in "${shard_ports[@]}"; do
        await_replica "$port"
    done

    # The burst at replica A. -loadjson itself cross-checks the client's
    # per-source outcomes against A's /metrics movement, so a nonzero
    # "peer" count below is already certificate-verified adoptions
    # (serve.peer_ok), not mere attempts.
    "$smoke/tdbench" -loadjson "$sharddir/load.json" \
        -loadserver "http://127.0.0.1:${shard_ports[0]}" -loadn 48 -loadc 6
    local metrics peer_ok store_puts
    metrics=$(curl -sf "http://127.0.0.1:${shard_ports[0]}/metrics")
    peer_ok=$(grep -o '"serve.peer_ok":[0-9]*' <<<"$metrics" | grep -o '[0-9]*$' || echo 0)
    store_puts=$(grep -o '"store.puts":[0-9]*' <<<"$metrics" | grep -o '[0-9]*$' || echo 0)
    if [[ "$peer_ok" -eq 0 ]]; then
        echo "ci: shard smoke: no certificate-verified peer fills at replica A — the ring never split the key-space" >&2
        exit 1
    fi
    if [[ "$store_puts" -eq 0 ]]; then
        echo "ci: shard smoke: no write-through store puts at replica A" >&2
        exit 1
    fi

    # Kill replica A, restart it on the same store file and address, and
    # repeat a key it answered during the burst: the answer must come off
    # the disk store, and the fresh process must have run zero engines
    # (serve.cache_misses still unmoved).
    kill -TERM "${shard_pids[0]}"
    wait "${shard_pids[0]}" || {
        echo "ci: shard smoke: replica A exited nonzero:" >&2
        cat "$sharddir/rep${shard_ports[0]}.out" >&2
        exit 1
    }
    start_replica "${shard_ports[0]}"
    shard_pids[0]=$!
    await_replica "${shard_ports[0]}"
    local repeat
    repeat=$(curl -sf -d '{"preset":"power"}' "http://127.0.0.1:${shard_ports[0]}/infer")
    grep -q '"source":"store"' <<<"$repeat" || {
        echo "ci: shard smoke: restarted replica did not answer the repeat from its store:" >&2
        echo "$repeat" >&2
        exit 1
    }
    metrics=$(curl -sf "http://127.0.0.1:${shard_ports[0]}/metrics")
    if grep -o '"serve.cache_misses":[0-9]*' <<<"$metrics" | grep -qv ':0$'; then
        echo "ci: shard smoke: restarted replica ran an engine on a stored key" >&2
        exit 1
    fi
    for pid in "${shard_pids[@]}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in "${shard_pids[@]}"; do
        wait "$pid" || true
    done

    # Migration smoke: testdata/store/v1.log is a TDVSTOR1 log an earlier
    # tdserve wrote while answering testdata/store/v1-requests.jsonl. A
    # replica started on a copy must answer every one of those requests
    # from its store, and leave the log rewritten as TDVSTOR2.
    cp testdata/store/v1.log "$sharddir/v1.log"
    "$smoke/tdserve" -addr 127.0.0.1:7474 -store "$sharddir/v1.log" >>"$sharddir/rep7474.out" 2>&1 &
    local v1_pid=$!
    await_replica 7474
    local body resp
    while read -r body; do
        resp=$(curl -sf -d "$body" "http://127.0.0.1:7474/infer")
        grep -q '"source":"store"' <<<"$resp" || {
            echo "ci: migration smoke: $body was not answered from the migrated store:" >&2
            echo "$resp" >&2
            exit 1
        }
    done <testdata/store/v1-requests.jsonl
    kill -TERM "$v1_pid"
    wait "$v1_pid" || {
        echo "ci: migration smoke: tdserve exited nonzero:" >&2
        cat "$sharddir/rep7474.out" >&2
        exit 1
    }
    [[ "$(head -c 8 "$sharddir/v1.log")" == TDVSTOR2 ]] || {
        echo "ci: migration smoke: the log was not rewritten as TDVSTOR2" >&2
        exit 1
    }
}

stage_bench() {
    # The search benchmark emitter must produce a report that parses and
    # carries both ablation arms (serial/symmetry, serial/none) with
    # identical verdicts and a pruned arm visiting no more nodes than the
    # unpruned one. -searchquick times one run per arm, so this checks
    # structure, not statistics.
    "$smoke/tdbench" -searchjson "$smoke/BENCH_search.json" -searchquick >/dev/null
    "$smoke/tdbench" -checksearch "$smoke/BENCH_search.json"

    # The committed chase benchmark snapshot must stay structurally valid:
    # parses, every workload present, each chase workload with a verdict,
    # and every ns/op positive.
    "$smoke/tdbench" -checkbench BENCH_chase.json

    # The portfolio emitter: a fresh quick report (one timed run per preset)
    # and the committed full report must each time every grid preset and
    # reach its expected verdict through its expected arm (model-search on
    # power, derivation on twostep and chain:2, kb on collapse:4).
    "$smoke/tdbench" -portfoliojson "$smoke/BENCH_portfolio.json" -portfolioquick >/dev/null
    "$smoke/tdbench" -checkportfolio "$smoke/BENCH_portfolio.json"
    "$smoke/tdbench" -checkportfolio BENCH_portfolio.json

    # The shard/restart drill emitter: a fresh quick report (3 in-process
    # replicas, 3 burst rounds, kill+restart) must parse and satisfy the
    # structural gates — key-space split across shards, nonzero verified
    # peer fills, every restart-warm repeat served from the store with zero
    # recomputes — and the committed full report must too.
    "$smoke/tdbench" -shardjson "$smoke/BENCH_serve.json" -shardquick >/dev/null
    "$smoke/tdbench" -checkserve "$smoke/BENCH_serve.json"
    "$smoke/tdbench" -checkserve BENCH_serve.json
}

stage_fuzz() {
    # The continuous differential gate. A fresh ~100-instance corpus (fixed
    # seed: this stage gates the CODE; the nightly workflow rotates seeds to
    # grow coverage) runs through every engine under matched governors.
    # -fuzzjson itself exits nonzero on any cross-engine disagreement, and
    # -checkfuzz re-enforces the acceptance gates from the report alone:
    # all three families present, zero disagreements, zero oracle
    # mismatches, every definitive consensus verdict certified. The
    # committed full-corpus BENCH_fuzz.json must satisfy the same gates.
    "$smoke/tdbench" -fuzzjson "$smoke/BENCH_fuzz.json" -fuzzquick -fuzzseed 7
    "$smoke/tdbench" -checkfuzz "$smoke/BENCH_fuzz.json"
    "$smoke/tdbench" -checkfuzz BENCH_fuzz.json
}

export -f stage_static stage_unit stage_race stage_smoke stage_shard stage_bench stage_fuzz

run_stage static 300 stage_static
run_stage unit 600 stage_unit
run_stage race 900 stage_race
run_stage smoke 300 stage_smoke
run_stage shard 300 stage_shard
run_stage bench 900 stage_bench
run_stage fuzz 600 stage_fuzz

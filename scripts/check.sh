#!/usr/bin/env bash
# The one-command local gate: everything CI runs, in order, fail-fast.
# See README "Static analysis & CI" and DESIGN.md §7.
set -euo pipefail
cd "$(dirname "$0")/.."

ran=()
skipped=()
step() { ran+=("$1"); printf '\n==> %s\n' "$*"; }
# A gate whose toolchain is absent: it leaves the "ran" list, joins the
# "skipped" list, and the summary line says so.
skip() { unset 'ran[-1]'; skipped+=("$1"); echo "$2 — skipping (not a failure)"; }

step fmt "cargo fmt --check"
cargo fmt --all -- --check

step clippy "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step rustdoc "cargo doc -D warnings (broken and ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step xtask-lint
cargo run -p xtask --quiet -- lint

step lint-seeds "the compiler-owned lint rules fire on their seeds and nowhere else"
# crates/xtask/lint_seeds.rs keeps the violation and pass-case seeds of the
# rules rustc and clippy took over from xtask (DESIGN.md §7). It is linted
# with the workspace's own [workspace.lints] and clippy.toml, in a fresh
# target dir: clippy does not re-lint a cached crate when clippy.toml
# changes. The step fails unless every `// lint: <name>` line is reported
# under that lint, and nothing else is reported. The seeds do not compile,
# so cargo's own exit status is not the verdict.
rm -rf target/lint-seeds
{ CARGO_TARGET_DIR=target/lint-seeds cargo clippy --quiet -p xtask --test lint_seeds \
    --message-format=json 2>/dev/null || true; } | python3 -c '
import json, re, sys
seeds = "crates/xtask/lint_seeds.rs"
want = {(seeds, n, m.group(1)) for n, line in enumerate(open(seeds), 1)
        for m in [re.search(r"// lint: (\S+)", line)] if m}
got = set()
for raw in sys.stdin:
    msg = json.loads(raw)
    d = msg.get("message") or {}
    spans = [s for s in d.get("spans", []) if s["is_primary"]]
    if msg.get("reason") != "compiler-message" or not spans:
        continue
    name = (d.get("code") or {}).get("code")
    # A lint raised as a hard error (E0133 for unsafe_op_in_unsafe_fn)
    # names itself in a note.
    for note in d["children"]:
        m = re.search(r"`-[DW] ([a-z0-9-]+)`", note["message"])
        if m and name and re.fullmatch(r"E[0-9]{4}", name):
            name = m.group(1).replace("-", "_")
    got.add((spans[0]["file_name"], spans[0]["line_start"], name))
for path, line, name in sorted(want - got, key=str):
    print(f"{path}:{line}: violation seed not reported as {name}")
for path, line, name in sorted(got - want, key=str):
    print(f"{path}:{line}: unexpected {name}")
if want != got:
    sys.exit(1)
print(f"lint-seeds: {len(want)} violation seeds reported under their lints; pass-case seeds clean")
'

step miri "(single-threaded embedding + sgns unit tests)"
# Miri checks the embedding kernels' SIMD and raw-pointer paths and the
# trainer for undefined behaviour.
# The component only exists on nightly toolchains; skip gracefully where
# it is unavailable instead of failing the whole gate.
if cargo miri --version >/dev/null 2>&1; then
  # MIRIFLAGS: isolation stays on; these tests touch no files or clocks.
  cargo miri test -p sisg-embedding -p sisg-sgns --lib
else
  skip miri "miri unavailable on this toolchain"
fi

step tier-1 "cargo build --release && cargo test -q"
# --locked: a dependency change fails here instead of rewriting Cargo.lock.
cargo build --release --locked
cargo test -q

step examples "run the quickstart and cold_start examples"
# Tier-1 compiles examples/ but never runs them. These two drive the
# public matching-stage API end to end (train → MatchingService → warm,
# Eq. 6 and cold-user answers); the exit code gates. ~12 s in release.
for example in quickstart cold_start; do
  cargo run --release --quiet --example "$example" >/dev/null
done

step workspace-tests "cargo test --workspace --release -q"
# Tier-1 is the root facade's tests only. The goldens, kernel and graph
# identity pins, stream replay hashes, serve and fault-simulation suites
# live in the member crates and gate nothing unless they run here
# (~2.5 min including a cold release build on a 2-core host).
cargo test --workspace --release -q

step interleave "schedule-exhaustive protocol model checks"
# Enumerates every interleaving of the modeled hot-swap, cache-clear,
# admission-slot, slot-handoff and Section III block-exchange protocols and
# pins the exact schedule counts (DESIGN.md §7). The trees are at most a
# few thousand schedules, so the exhaustive run is seconds-scale.
# SISG_INTERLEAVE_SMOKE=<n> caps exploration (tests then skip count pinning)
# for constrained environments; CI sets a high ceiling that leaves the
# current models exhaustive while bounding runaway tree growth.
cargo test --release -q -p sisg-interleave

step tsan "(best effort): interleave models + embedding tests under ThreadSanitizer"
# ThreadSanitizer needs a nightly toolchain with rust-src (-Zbuild-std).
# Skip cleanly when either is absent instead of failing the gate — the
# exhaustive interleave pass above is the authoritative concurrency check.
if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src (installed)'; then
  host="$(rustc -vV | sed -n 's/^host: //p')"
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$host" -q \
      -p sisg-interleave -p sisg-embedding
else
  skip tsan "nightly + rust-src unavailable"
fi

step metrics-smoke "emit a snapshot and validate its shape"
# A fast instrumented experiment writes its obs snapshot into a scratch
# results tree; validate-metrics fails on unparsable or misshapen JSON.
# See docs/OBSERVABILITY.md for the snapshot format.
rm -rf target/ci-results
SISG_RESULTS=target/ci-results SISG_ITEMS=400 SISG_EPOCHS=1 \
  cargo run --release --quiet -p sisg-bench --bin ablation_ann >/dev/null
cargo run -p xtask --quiet -- validate-metrics \
  --catalog docs/OBSERVABILITY.md target/ci-results/metrics/ablation_ann.json

step simtest-smoke "pinned fault seeds replay to their recorded traces"
# Three seeded fault schedules (drop+duplicate+delay) must reproduce their
# pinned event-trace hashes exactly — the deterministic-simulation contract
# of DESIGN.md §9. Seconds-scale: the virtual cluster needs no threads.
cargo test --release -q -p sisg-simtest --test determinism

step benchmark "its unit tests + a 1 s correctness-gate smoke of every workload"
# The repo benchmark (BENCHMARK.json, benchmark/README.md) is a package of
# its own, so `cargo test --workspace` never builds it. Its tests cover
# its own maths; the smoke runs each workload for one second untraced. The
# gate is the exit code, which is 1 when a workload's output check (parity,
# recall floor, HR@10 floor, failed requests) does not hold. One line per
# workload, parsed from the last-line JSON, keeps the end-to-end metrics in
# the log — peak_rss_mb repeats to 0.3 % even at one second, so the logs
# record the memory trajectory. Nothing is asserted on them: timings come
# from full runs on a quiet host. --locked: a dependency change fails the
# gate instead of silently rewriting benchmark/Cargo.lock, which only a
# benchmark change may touch.
cargo test --release --quiet --locked --manifest-path benchmark/Cargo.toml
printf '%-18s %9s %14s %12s\n' workload setup_s quality_at_10 peak_rss_mb
for workload in $(python3 -c \
  'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
  cargo run --release --quiet --locked --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1 | python3 -c '
import json, sys
m = {k: v["value"] for k, v in json.loads(sys.stdin.read())["metrics"].items()}
print("%-18s %9.2f %14.4f %12.1f" % (sys.argv[1], m["setup_s"], m["quality_at_10"], m["peak_rss_mb"]))
' "$workload"
done

printf '\ncheck.sh: %d gates passed (%s); %d skipped (%s)\n' \
  "${#ran[@]}" "${ran[*]}" "${#skipped[@]}" "${skipped[*]:-none}"

#!/usr/bin/env bash
# Bench regression gate (ROADMAP item "Bench regressions in CI").
#
# Compares a freshly emitted BENCH_engine.json against the committed
# snapshot and fails when
#   - the dense/BTree speedup of any graph size drops below 1x, or
#   - the dense per-update latency regresses by more than
#     BENCH_GATE_MAX_RATIO (default 2.0) vs the committed number, or
#   - in the fresh "ingest" section, the deep-queue (queue_depth=64)
#     coalesce fraction drops below BENCH_GATE_INGEST_MIN_COALESCE
#     (default 0.25): on the flapping workload the coalescing queue must
#     keep eliminating a healthy share of the pushed changes before any
#     settle work — a fraction collapsing toward zero means the
#     ingestion layer stopped cancelling opposing churn. Fresh-run-only,
#     so fidelity-independent, or
#   - in the fresh "sharding" section, the K=4 engine's n=1000
#     single-toggle latency exceeds the K=1 row's by more than
#     BENCH_GATE_SHARD_MAX_RATIO (default 3.0). Both rows come from the
#     same fresh run, so the check is fidelity-independent and
#     BENCH_SNAPSHOT_FULL semantics are preserved: CI forces full
#     iteration counts for the committed-snapshot comparisons, and the
#     shard ratio is meaningful either way. The two rows differ only by
#     the epoch barrier and its cross-shard handoffs, which Theorem 1
#     keeps rare on a single toggle. The default tolerance is
#     deliberately loose against single-run noise; what the gate exists
#     to catch is per-epoch coordination work that grows with n or K
#     leaking into the tiny-cascade fast path.
#   - in the fresh "scale" section (sustained churn on pre-sized
#     engines; ER and Chung–Lu), for the largest size present per
#     family (n=10^5 required, the full-mode 10^6 rows checked when
#     present): ns_per_change exceeds BENCH_GATE_SCALE_MAX_RATIO
#     (default 8.0) times the same family's n=4096 figure — per-change
#     cost must stay flat in n up to cache effects, so a blown ratio
#     means an O(n) scan crept back into the update path; or
#     published_ns_per_change (the same churn with a MisReader held,
#     so every toggle also publishes a snapshot) exceeds the same ratio
#     times the family's n=4096 published figure — publish cost must
#     follow the bits an epoch changed, not n; or
#     bytes_per_node (peak-RSS delta over the whole graph+engine
#     working set) exceeds BENCH_GATE_SCALE_MAX_BYTES_PER_NODE
#     (default 600); or churn_regrows is nonzero — the pre-sized arenas
#     must absorb steady-state churn without a single reallocation.
#     All fresh-run-only, so fidelity-independent.
#   - in the fresh "ingest_policy" section (FlushPolicy sweep on a
#     deterministic ManualClock, one 1ms tick per push, so every figure
#     is a pure function of the seeded streams — identical on every
#     host): on the flapping stream, the Adaptive policy must recover at
#     least BENCH_GATE_INGEST_ADAPTIVE_MIN_RATIO (default 0.8) of the
#     best fixed watermark's coalesce fraction — the smoother may not
#     give away the batching win fixed depths get for free; and on the
#     trickle stream (fresh pairs, nothing ever coalesces), Adaptive's
#     p99 queue delay must beat Depth(64)'s AND stay at or below
#     BENCH_GATE_INGEST_P99_MAX_DELAY ticks (default 32) — the smoother
#     must walk the depth down instead of parking changes behind a
#     64-deep window that never fills. Fresh-run-only and clock-free,
#     so fidelity- and machine-independent.
#   - in the fresh "serve" section (the concurrent snapshot read path):
#     publish_overhead on the n=4096 batched-toggle row — published
#     engine over plain engine, interleaved minima from the same fresh
#     run — exceeds BENCH_GATE_SERVE_MAX_OVERHEAD (default 1.10), i.e.
#     attaching a reader must cost the writer at most 10%; or the
#     ServeRun row reports zero reads (the reader threads never
#     sampled), a nonzero epoch_regressions count (a reader observed
#     time going backwards — the snapshot channel's one impossible
#     event), or staleness_max above BENCH_GATE_SERVE_MAX_STALENESS
#     (default 64 epochs — generous; a just-acquired snapshot is
#     normally 0-1 epochs behind the writer). Fresh-run-only, so
#     fidelity-independent.
#   - in the fresh "recovery" section (the durability layer: live
#     log-then-publish ingest vs checkpoint restore + WAL replay of the
#     same history): replay_ratio (replayed ns/change over live
#     ns/change, same fresh run so machine speed cancels) exceeds
#     BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO (default 2.0) — replay
#     re-executes exactly the logged coalesced windows, so it must stay
#     within a small constant of live ingest or recovery time stops
#     being proportional to the replayed suffix; or the checkpoint
#     image's bytes_per_node exceeds
#     BENCH_GATE_RECOVERY_MAX_BYTES_PER_NODE (default 256) — the frame
#     format is adjacency + priorities + witness, all O(n + m), and a
#     blown ceiling means something unbounded leaked into the image.
#     Fresh-run-only, so fidelity-independent.
#
# Usage: tools/bench_gate.sh <fresh.json> <committed.json>
#
# The JSON format is the one write_snapshot() in
# crates/bench/benches/engine_updates.rs emits: one object per line in
# every section's array, which keeps this parser to grep/awk.
set -euo pipefail

fresh="${1:?usage: bench_gate.sh <fresh.json> <committed.json>}"
committed="${2:?usage: bench_gate.sh <fresh.json> <committed.json>}"

# Doc-drift gate: every BENCH_GATE_* knob this script reads must appear
# in README.md's gate-knob table, and every BENCH_GATE_* knob the README
# documents must still exist here — renaming or removing a knob without
# updating the docs (or vice versa) fails before any numbers are read.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
readme="$repo_root/README.md"
script_vars="$(grep -oE 'BENCH_GATE_[A-Z0-9]+[A-Z0-9_]*' "$0" | sort -u)"
readme_vars="$(grep -oE 'BENCH_GATE_[A-Z0-9]+[A-Z0-9_]*' "$readme" | sort -u)"
undocumented="$(comm -23 <(echo "$script_vars") <(echo "$readme_vars"))"
stale="$(comm -13 <(echo "$script_vars") <(echo "$readme_vars"))"
if [ -n "$undocumented" ]; then
  echo "bench gate FAIL: knobs used here but missing from README.md's gate table:" >&2
  echo "$undocumented" >&2
  exit 1
fi
if [ -n "$stale" ]; then
  echo "bench gate FAIL: knobs documented in README.md but unknown to this script:" >&2
  echo "$stale" >&2
  exit 1
fi
max_ratio="${BENCH_GATE_MAX_RATIO:-2.0}"
shard_max_ratio="${BENCH_GATE_SHARD_MAX_RATIO:-3.0}"
ingest_min_coalesce="${BENCH_GATE_INGEST_MIN_COALESCE:-0.25}"
scale_max_ratio="${BENCH_GATE_SCALE_MAX_RATIO:-8.0}"
scale_max_bytes="${BENCH_GATE_SCALE_MAX_BYTES_PER_NODE:-600}"
serve_max_overhead="${BENCH_GATE_SERVE_MAX_OVERHEAD:-1.10}"
serve_max_staleness="${BENCH_GATE_SERVE_MAX_STALENESS:-64}"
ingest_adaptive_min_ratio="${BENCH_GATE_INGEST_ADAPTIVE_MIN_RATIO:-0.8}"
ingest_p99_max_delay="${BENCH_GATE_INGEST_P99_MAX_DELAY:-32}"
recovery_max_replay_ratio="${BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO:-2.0}"
recovery_max_bytes="${BENCH_GATE_RECOVERY_MAX_BYTES_PER_NODE:-256}"

# field <file> <n> <key>: value of <key> in the results entry for n=<n>.
# Empty output (not a nonzero exit, which set -e would turn into a
# silent abort) signals a missing entry; the caller reports it.
field() {
  { grep -o "{\"n\": $2,[^}]*}" "$1" | grep "\"$3\":" | head -n 1 \
    | grep -o "\"$3\": [0-9.]*" | awk '{print $2}'; } || true
}

# shfield <file> <n> <shards> <key>: value of <key> in the "sharding"
# entry for that (n, K) pair. The leading key sequence "n", "shards" is
# unique to that section.
shfield() {
  { grep -o "{\"n\": $2, \"shards\": $3,[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$4\": [0-9.]*" | awk '{print $2}'; } || true
}

status=0
for n in 100 1000; do
  speedup="$(field "$fresh" "$n" speedup)"
  dense_new="$(field "$fresh" "$n" dense_ns_per_toggle)"
  dense_old="$(field "$committed" "$n" dense_ns_per_toggle)"
  if [ -z "$speedup" ] || [ -z "$dense_new" ] || [ -z "$dense_old" ]; then
    echo "bench gate: missing entry for n=$n (fresh=$fresh committed=$committed)" >&2
    status=1
    continue
  fi
  if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "bench gate FAIL: dense/BTree speedup ${speedup}x < 1x at n=$n" >&2
    status=1
  fi
  if ! awk -v new="$dense_new" -v old="$dense_old" -v r="$max_ratio" \
      'BEGIN { exit !(new <= r * old) }'; then
    echo "bench gate FAIL: dense ${dense_new}ns/update > ${max_ratio}x committed ${dense_old}ns at n=$n" >&2
    status=1
  fi
  echo "bench gate: n=$n speedup=${speedup}x dense=${dense_new}ns (committed ${dense_old}ns)"
done

# ifield <file> <depth> <key>: value of <key> in the "ingest" entry for
# queue_depth=<depth>. The leading key sequence "n", "queue_depth" is
# unique to that section.
ifield() {
  { grep -o "{\"n\": 1000, \"queue_depth\": $2,[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$3\": [0-9.]*" | awk '{print $2}'; } || true
}

# Ingestion gate: the deep queue must keep coalescing a healthy share of
# the flapping stream. Fresh-run-only, so fidelity-independent.
ing_frac="$(ifield "$fresh" 64 coalesce_fraction)"
ing_ns="$(ifield "$fresh" 64 ns_per_change)"
ing_ns1="$(ifield "$fresh" 1 ns_per_change)"
if [ -z "$ing_frac" ] || [ -z "$ing_ns" ] || [ -z "$ing_ns1" ]; then
  echo "bench gate: missing \"ingest\" entries (queue_depth 1/64) in $fresh" >&2
  status=1
else
  if ! awk -v f="$ing_frac" -v m="$ingest_min_coalesce" 'BEGIN { exit !(f >= m) }'; then
    echo "bench gate FAIL: ingest coalesce fraction ${ing_frac} < ${ingest_min_coalesce} at queue_depth=64" >&2
    status=1
  fi
  echo "bench gate: ingest Q=64 coalesce=${ing_frac} (${ing_ns}ns/change vs ${ing_ns1}ns unbatched)"
fi

# scfield <file> <n> <family> <key>: value of <key> in the "scale" entry
# for that (n, family) cell. The leading key sequence "n", "family" is
# unique to that section.
scfield() {
  { grep -o "{\"n\": $2, \"family\": \"$3\",[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$4\": [0-9.]*" | awk '{print $2}'; } || true
}

# Scale gate: per-change cost flat in n (up to the cache-effect
# allowance) with and without a reader attached, bounded bytes/node, and
# zero steady-state reallocations. The 10^5 rows are mandatory; 10^6
# rows are checked when present (the committed full-mode snapshot
# carries them, smoke runs stop at 10^5).
for fam in er chung_lu; do
  base="$(scfield "$fresh" 4096 "$fam" ns_per_change)"
  pub_base="$(scfield "$fresh" 4096 "$fam" published_ns_per_change)"
  if [ -z "$base" ] || [ -z "$pub_base" ]; then
    echo "bench gate: missing \"scale\" entry (n=4096, $fam) in $fresh" >&2
    status=1
    continue
  fi
  for n in 100000 1000000; do
    ns="$(scfield "$fresh" "$n" "$fam" ns_per_change)"
    pub_ns="$(scfield "$fresh" "$n" "$fam" published_ns_per_change)"
    bpn="$(scfield "$fresh" "$n" "$fam" bytes_per_node)"
    regrows="$(scfield "$fresh" "$n" "$fam" churn_regrows)"
    if [ -z "$ns" ] || [ -z "$pub_ns" ] || [ -z "$bpn" ] || [ -z "$regrows" ]; then
      if [ "$n" -eq 100000 ]; then
        echo "bench gate: missing \"scale\" entry (n=$n, $fam) in $fresh" >&2
        status=1
      fi
      continue
    fi
    if ! awk -v ns="$ns" -v b="$base" -v r="$scale_max_ratio" \
        'BEGIN { exit !(ns <= r * b) }'; then
      echo "bench gate FAIL: scale $fam n=$n ${ns}ns/change > ${scale_max_ratio}x the n=4096 figure (${base}ns)" >&2
      status=1
    fi
    if ! awk -v ns="$pub_ns" -v b="$pub_base" -v r="$scale_max_ratio" \
        'BEGIN { exit !(ns <= r * b) }'; then
      echo "bench gate FAIL: scale $fam n=$n ${pub_ns}ns/change with a reader > ${scale_max_ratio}x the n=4096 published figure (${pub_base}ns)" >&2
      status=1
    fi
    if ! awk -v v="$bpn" -v m="$scale_max_bytes" 'BEGIN { exit !(v <= m) }'; then
      echo "bench gate FAIL: scale $fam n=$n ${bpn} bytes/node > ${scale_max_bytes}" >&2
      status=1
    fi
    if [ "$regrows" != "0" ]; then
      echo "bench gate FAIL: scale $fam n=$n churn_regrows=${regrows} (pre-sized arenas must not reallocate)" >&2
      status=1
    fi
    echo "bench gate: scale $fam n=$n ${ns}ns/change (base ${base}ns), published ${pub_ns}ns/change (base ${pub_base}ns), ${bpn} bytes/node, regrows=${regrows}"
  done
done

# ipfield <file> <stream> <policy> <key>: value of <key> in the
# "ingest_policy" entry for that (stream, policy) cell. The leading key
# sequence "n", "stream", "policy" is unique to that section.
ipfield() {
  { grep -o "{\"n\": 1000, \"stream\": \"$2\", \"policy\": \"$3\",[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$4\": [0-9.]*" | awk '{print $2}'; } || true
}

# Flush-policy gate: the Adaptive smoother must keep most of the
# batching win on coalescing-friendly churn AND shed the queue-delay
# cost on anti-coalescing trickle. Every cell is metered on a
# deterministic ManualClock (one 1ms tick per push), so these figures
# are pure functions of the seeded streams — fresh-run-only AND
# machine-independent.
best_fixed=""
for p in depth:1 depth:16 depth:64; do
  frac="$(ipfield "$fresh" flapping "$p" coalesce_fraction)"
  if [ -z "$frac" ]; then
    echo "bench gate: missing \"ingest_policy\" entry (flapping, $p) in $fresh" >&2
    status=1
    continue
  fi
  if [ -z "$best_fixed" ] || awk -v f="$frac" -v b="$best_fixed" 'BEGIN { exit !(f > b) }'; then
    best_fixed="$frac"
  fi
done
ad_frac="$(ipfield "$fresh" flapping adaptive coalesce_fraction)"
if [ -z "$ad_frac" ] || [ -z "$best_fixed" ]; then
  echo "bench gate: missing \"ingest_policy\" adaptive/fixed flapping rows in $fresh" >&2
  status=1
else
  if ! awk -v a="$ad_frac" -v b="$best_fixed" -v r="$ingest_adaptive_min_ratio" \
      'BEGIN { exit !(a >= r * b) }'; then
    echo "bench gate FAIL: adaptive coalesce ${ad_frac} < ${ingest_adaptive_min_ratio}x the best fixed watermark's ${best_fixed} on flapping" >&2
    status=1
  fi
  echo "bench gate: ingest_policy flapping adaptive coalesce=${ad_frac} (best fixed ${best_fixed}, floor ${ingest_adaptive_min_ratio}x)"
fi
ad_p99="$(ipfield "$fresh" trickle adaptive delay_p99_ticks)"
deep_p99="$(ipfield "$fresh" trickle depth:64 delay_p99_ticks)"
if [ -z "$ad_p99" ] || [ -z "$deep_p99" ]; then
  echo "bench gate: missing \"ingest_policy\" trickle rows (adaptive, depth:64) in $fresh" >&2
  status=1
else
  if ! awk -v a="$ad_p99" -v d="$deep_p99" 'BEGIN { exit !(a < d) }'; then
    echo "bench gate FAIL: adaptive trickle p99 queue delay ${ad_p99} ticks >= depth:64's ${deep_p99} — the smoother never walked the depth down" >&2
    status=1
  fi
  if ! awk -v a="$ad_p99" -v m="$ingest_p99_max_delay" 'BEGIN { exit !(a <= m) }'; then
    echo "bench gate FAIL: adaptive trickle p99 queue delay ${ad_p99} ticks > ${ingest_p99_max_delay} (BENCH_GATE_INGEST_P99_MAX_DELAY)" >&2
    status=1
  fi
  echo "bench gate: ingest_policy trickle adaptive p99=${ad_p99} ticks (depth:64 ${deep_p99}, cap ${ingest_p99_max_delay})"
fi

# svfield <file> <key>: value of <key> in the "serve" section's
# publication-overhead row. The leading key sequence "n",
# "plain_ns_per_change" is unique to that row.
svfield() {
  { grep -o "{\"n\": 4096, \"plain_ns_per_change\"[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$2\": [0-9.]*" | awk '{print $2}'; } || true
}

# srfield <file> <key>: value of <key> in the "serve" section's ServeRun
# row. The leading key sequence "n", "readers" is unique to that row.
srfield() {
  { grep -o "{\"n\": 1000, \"readers\": 2,[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$2\": [0-9.]*" | awk '{print $2}'; } || true
}

# Serve gate: the snapshot read path must stay nearly free for the
# writer, and the reader side must be live and monotone. Fresh-run-only,
# so fidelity-independent.
sv_over="$(svfield "$fresh" publish_overhead)"
sv_plain="$(svfield "$fresh" plain_ns_per_change)"
sv_pub="$(svfield "$fresh" published_ns_per_change)"
if [ -z "$sv_over" ] || [ -z "$sv_plain" ] || [ -z "$sv_pub" ]; then
  echo "bench gate: missing \"serve\" publication-overhead row (n=4096) in $fresh" >&2
  status=1
else
  if ! awk -v o="$sv_over" -v m="$serve_max_overhead" 'BEGIN { exit !(o <= m) }'; then
    echo "bench gate FAIL: serve publish overhead ${sv_over}x > ${serve_max_overhead}x (plain ${sv_plain}ns, published ${sv_pub}ns per change)" >&2
    status=1
  fi
  echo "bench gate: serve publish overhead ${sv_over}x (plain ${sv_plain}ns vs published ${sv_pub}ns per change)"
fi
sr_rps="$(srfield "$fresh" reads_per_sec)"
sr_reg="$(srfield "$fresh" epoch_regressions)"
sr_stale="$(srfield "$fresh" staleness_max)"
if [ -z "$sr_rps" ] || [ -z "$sr_reg" ] || [ -z "$sr_stale" ]; then
  echo "bench gate: missing \"serve\" ServeRun row (n=1000, readers=2) in $fresh" >&2
  status=1
else
  if ! awk -v r="$sr_rps" 'BEGIN { exit !(r > 0) }'; then
    echo "bench gate FAIL: serve reads_per_sec=${sr_rps} — reader threads never sampled" >&2
    status=1
  fi
  if [ "$sr_reg" != "0" ]; then
    echo "bench gate FAIL: serve epoch_regressions=${sr_reg} (readers must never observe epochs going backwards)" >&2
    status=1
  fi
  if ! awk -v s="$sr_stale" -v m="$serve_max_staleness" 'BEGIN { exit !(s <= m) }'; then
    echo "bench gate FAIL: serve staleness_max=${sr_stale} epochs > ${serve_max_staleness}" >&2
    status=1
  fi
  echo "bench gate: serve R=2 reads/s=${sr_rps}, staleness_max=${sr_stale}, regressions=${sr_reg}"
fi

# rcfield <file> <key>: value of <key> in the "recovery" section's row.
# The leading key sequence "n", "changes" is unique to that section.
rcfield() {
  { grep -o "{\"n\": 4096, \"changes\": [0-9]*,[^}]*}" "$1" \
    | head -n 1 | grep -o "\"$2\": [0-9.]*" | awk '{print $2}'; } || true
}

# Recovery gate: WAL replay must stay within a small constant of live
# ingest, and the checkpoint image must stay O(n + m)-sized. Both
# figures come from the same fresh run, so the checks are
# fidelity-independent.
rc_ratio="$(rcfield "$fresh" replay_ratio)"
rc_live="$(rcfield "$fresh" live_ns_per_change)"
rc_replay="$(rcfield "$fresh" replay_ns_per_change)"
rc_bpn="$(rcfield "$fresh" bytes_per_node)"
if [ -z "$rc_ratio" ] || [ -z "$rc_live" ] || [ -z "$rc_replay" ] || [ -z "$rc_bpn" ]; then
  echo "bench gate: missing \"recovery\" row (n=4096) in $fresh" >&2
  status=1
else
  if ! awk -v r="$rc_ratio" -v m="$recovery_max_replay_ratio" 'BEGIN { exit !(r <= m) }'; then
    echo "bench gate FAIL: recovery replay ratio ${rc_ratio}x > ${recovery_max_replay_ratio}x (live ${rc_live}ns, replay ${rc_replay}ns per change)" >&2
    status=1
  fi
  if ! awk -v b="$rc_bpn" -v m="$recovery_max_bytes" 'BEGIN { exit !(b <= m) }'; then
    echo "bench gate FAIL: recovery checkpoint ${rc_bpn} bytes/node > ${recovery_max_bytes}" >&2
    status=1
  fi
  echo "bench gate: recovery replay ratio ${rc_ratio}x (live ${rc_live}ns vs replay ${rc_replay}ns per change), checkpoint ${rc_bpn} bytes/node"
fi

# Sharding gate: the epoch barrier and its handoffs must not tax the
# paper's tiny-cascade common case. Compares two rows of the same fresh
# run, so machine speed and iteration counts cancel out.
shard4="$(shfield "$fresh" 1000 4 ns_per_toggle)"
shard1="$(shfield "$fresh" 1000 1 ns_per_toggle)"
if [ -z "$shard4" ] || [ -z "$shard1" ]; then
  echo "bench gate: missing \"sharding\" entries for n=1000 K=4/K=1 in $fresh" >&2
  status=1
else
  if ! awk -v k4="$shard4" -v k1="$shard1" -v r="$shard_max_ratio" \
      'BEGIN { exit !(k4 <= r * k1) }'; then
    echo "bench gate FAIL: sharded K=4 ${shard4}ns/toggle > ${shard_max_ratio}x K=1 ${shard1}ns at n=1000" >&2
    status=1
  fi
  echo "bench gate: sharded K=4 ${shard4}ns vs K=1 ${shard1}ns at n=1000 (cap ${shard_max_ratio}x)"
fi

if [ "$status" -eq 0 ]; then
  echo "bench gate OK"
fi
exit "$status"

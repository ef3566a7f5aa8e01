//! The repo contracts as data: each rule names the convention it
//! enforces, the DESIGN.md anchor that argues for it, the paths it
//! applies to, and the token patterns that constitute a violation.
//!
//! Scoping is path-based and deliberately coarse: a rule either applies
//! to a file or it does not, and test code (`#[cfg(test)]` items,
//! `#[test]` functions, anything under a `tests/`, `benches/`, or
//! `examples/` directory) is exempt from every rule except
//! [`FORBID_UNSAFE`] — the contracts protect production bit-identity
//! and recovery, not test ergonomics.

/// One element of a token-sequence pattern.
#[derive(Debug, Clone, Copy)]
pub enum Elem {
    /// An identifier drawn from this set.
    Id(&'static [&'static str]),
    /// A single punctuation character.
    P(char),
}

/// A banned token sequence (length 1 for simple identifier bans).
pub type Pattern = &'static [Elem];

/// A machine-checked repo contract.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name, used in waivers and `--explain`.
    pub name: &'static str,
    /// One-line statement of the contract.
    pub contract: &'static str,
    /// Why the contract protects bit-identity / recovery (the
    /// `--explain` body; the table lives in DESIGN.md § Static
    /// contracts).
    pub why: &'static str,
    /// Token sequences that violate the contract.
    pub patterns: &'static [Pattern],
}

/// `no-ordered-map-hot-path`.
pub const NO_ORDERED_MAP: Rule = Rule {
    name: "no-ordered-map-hot-path",
    contract: "BTreeMap/BTreeSet/HashMap/HashSet are banned in crates/graph/src, the core hot \
               modules (engine.rs, sharding.rs, rank.rs, snapshot.rs), and the derived \
               matching engines; hot paths stay on dense NodeMap/NodeSet storage.",
    why: "PR 1/6 moved every per-node table to arena-backed dense storage: ordered maps \
          reintroduce O(log n) pointer-chasing on paths gated at O(touched), and HashMap's \
          RandomState makes iteration order run-dependent, which breaks receipt bit-identity. \
          The remaining EdgeKey tables are waived pending the ROADMAP 'Edge-keyed dense \
          storage' item.",
    patterns: &[&[Elem::Id(&["BTreeMap", "BTreeSet", "HashMap", "HashSet"])]],
};

/// `no-ambient-time`.
pub const NO_AMBIENT_TIME: Rule = Rule {
    name: "no-ambient-time",
    contract: "Instant::now / SystemTime only inside policy.rs (MonotonicClock), bench and sim \
               timing loops, and driver binaries; everything else takes time through the \
               injectable Clock.",
    why: "PR 8 made every policy decision a pure function of the seeded stream by routing all \
          time observations through the Clock trait. One ambient Instant::now() in a settle or \
          flush path passes every test yet makes replay/recovery diverge from the recorded \
          receipts, silently breaking the bit-identity the checkpoint/WAL proofs rely on.",
    patterns: &[
        &[
            Elem::Id(&["Instant"]),
            Elem::P(':'),
            Elem::P(':'),
            Elem::Id(&["now"]),
        ],
        &[Elem::Id(&["SystemTime", "UNIX_EPOCH"])],
    ],
};

/// `no-ambient-rng`.
pub const NO_AMBIENT_RNG: Rule = Rule {
    name: "no-ambient-rng",
    contract:
        "RNG construction only through seeded, draw-counted paths (SeedableRng::seed_from_u64 \
               et al.); entropy-seeded or thread-local RNGs are banned everywhere.",
    why: "The checkpoint META frame records the RNG seed and draw count so recovery can fast- \
          forward the stream to the exact position the crashed engine held. An RNG seeded from \
          ambient entropy — or a thread-local one drawing outside the counted path — corrupts \
          that contract: recovery replays different priorities and the witness check fails (or \
          worse, silently diverges in a derived structure).",
    patterns: &[&[Elem::Id(&[
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
    ])]],
};

/// `no-thread-spawn`.
pub const NO_THREAD_SPAWN: Rule = Rule {
    name: "no-thread-spawn",
    contract: "Engines never spawn: thread::spawn / thread::scope appear only in serve.rs, the \
               serving harness, whose reader threads are the one exemption.",
    why: "Receipts are bit-identical because a settle runs on the caller's thread: the sharded \
          coordinator drains each epoch's dirty shards inline, in shard-index order, and merges \
          their outboxes in that order at the barrier. A spawn inside an engine would make \
          that order a scheduler's choice. The serving harness's readers only load published \
          snapshots, so they cannot perturb a settle.",
    patterns: &[&[
        Elem::Id(&["thread"]),
        Elem::P(':'),
        Elem::P(':'),
        Elem::Id(&["spawn", "scope"]),
    ]],
};

/// `no-panic-decode`.
pub const NO_PANIC_DECODE: Rule = Rule {
    name: "no-panic-decode",
    contract: "unwrap / expect / panic!-family macros are banned in the durability decoders \
               (codec.rs, checkpoint.rs, wal.rs, recover.rs outside tests); hostile bytes \
               must surface as DecodeError/CodecError, never a panic.",
    why: "Recovery's whole job is reading bytes a crash may have mangled: PR 9's fault- \
          injection suite proves every torn/flipped/truncated image yields a valid prefix \
          state. A decoder that panics on hostile input turns a recoverable corruption into \
          a crash loop — the one failure mode the durability layer exists to rule out.",
    // Method-call shape (`.unwrap(`) rather than the bare identifier, so
    // a local *named* `expect` (e.g. `take_frame(cur, expect)`) does not
    // fire; the path forms catch `.map(Option::unwrap)` closures.
    patterns: &[
        &[Elem::P('.'), Elem::Id(&["unwrap", "expect"]), Elem::P('(')],
        &[
            Elem::Id(&["Option", "Result"]),
            Elem::P(':'),
            Elem::P(':'),
            Elem::Id(&["unwrap", "expect"]),
        ],
        &[
            Elem::Id(&["panic", "unreachable", "todo", "unimplemented"]),
            Elem::P('!'),
        ],
    ],
};

/// `forbid-unsafe-everywhere`.
pub const FORBID_UNSAFE: Rule = Rule {
    name: "forbid-unsafe-everywhere",
    contract: "Every crate root (src/lib.rs, src/main.rs, src/bin/*.rs — vendored stand-ins \
               included) carries #![forbid(unsafe_code)].",
    why: "The dense storage layer hands out raw word slices and the snapshot publisher \
          rewrites a published buffer in place once Arc::get_mut proves no reader holds it; \
          both are safe today precisely because the compiler checks them. forbid (not deny) \
          means no module can opt back in with an allow — the absence of unsafe is a \
          workspace-wide invariant the equivalence suites lean on.",
    // Matched specially: this rule *requires* a token sequence instead of
    // banning one. The patterns slice documents the required prefix.
    patterns: &[&[
        Elem::P('#'),
        Elem::P('!'),
        Elem::P('['),
        Elem::Id(&["forbid"]),
        Elem::P('('),
        Elem::Id(&["unsafe_code"]),
        Elem::P(')'),
        Elem::P(']'),
    ]],
};

/// `no-print-in-lib`.
pub const NO_PRINT_IN_LIB: Rule = Rule {
    name: "no-print-in-lib",
    contract: "println!/eprintln!/print!/eprint!/dbg! are banned in library code; reporting \
               belongs to src/bin drivers, benches, examples, and tests.",
    why: "Library prints are unmeterable side channels: they skew the ns/change benches the \
          regression gates compare, interleave nondeterministically with the serving \
          harness's reader threads, and leak past the structured receipts/reports every \
          harness meters. A stray debug eprintln! in a settle path is also the classic way \
          timing artifacts sneak into 'deterministic' runs.",
    patterns: &[&[
        Elem::Id(&["println", "eprintln", "print", "eprint", "dbg"]),
        Elem::P('!'),
    ]],
};

/// All rules, in reporting order.
pub const RULES: &[&Rule] = &[
    &NO_ORDERED_MAP,
    &NO_AMBIENT_TIME,
    &NO_AMBIENT_RNG,
    &NO_THREAD_SPAWN,
    &NO_PANIC_DECODE,
    &FORBID_UNSAFE,
    &NO_PRINT_IN_LIB,
];

/// Looks a rule up by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().copied().find(|r| r.name == name)
}

/// The core hot modules covered by [`NO_ORDERED_MAP`].
const CORE_HOT_MODULES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/sharding.rs",
    "crates/core/src/rank.rs",
    "crates/core/src/snapshot.rs",
];

/// The durability decoders covered by [`NO_PANIC_DECODE`].
const DECODE_MODULES: &[&str] = &[
    "crates/core/src/durability/codec.rs",
    "crates/core/src/durability/checkpoint.rs",
    "crates/core/src/durability/wal.rs",
    "crates/core/src/durability/recover.rs",
];

/// True if `path` (workspace-relative, `/`-separated) lives in a
/// directory whose entire contents are test/bench/example code.
#[must_use]
pub fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

fn in_dir(path: &str, dir: &str) -> bool {
    path.starts_with(dir) && path.as_bytes().get(dir.len()) == Some(&b'/')
}

/// True if `path` is a driver binary: a `src/bin/` entry or a crate's
/// `src/main.rs`. Drivers are where reporting and wall-clock timing
/// legitimately live.
#[must_use]
pub fn is_bin_driver(path: &str) -> bool {
    path.starts_with("src/bin/") || path.contains("/src/bin/") || path.ends_with("src/main.rs")
}

/// True if `path` is a crate root that must carry the forbid attribute.
#[must_use]
pub fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || ((path.starts_with("src/bin/") || path.contains("/src/bin/")) && path.ends_with(".rs"))
}

/// Whether `rule` applies to `path` at all. Vendored stand-ins are only
/// subject to the crate-root attribute check; fixture corpora are never
/// scanned (the workspace walker skips them, and this predicate backs
/// that up).
#[must_use]
pub fn applies(rule: &Rule, path: &str) -> bool {
    if path.split('/').any(|seg| seg == "fixtures") {
        return false;
    }
    if rule.name == FORBID_UNSAFE.name {
        return is_crate_root(path);
    }
    if in_dir(path, "vendor") {
        return false;
    }
    match rule.name {
        "no-ordered-map-hot-path" => {
            in_dir(path, "crates/graph/src")
                || CORE_HOT_MODULES.contains(&path)
                || path == "crates/derived/src/matching.rs"
                || path == "crates/derived/src/matching_native.rs"
        }
        "no-ambient-time" => {
            !is_test_path(path)
                && path != "crates/core/src/policy.rs"
                && path != "crates/sim/src/serve.rs"
                && !in_dir(path, "crates/bench")
                && !is_bin_driver(path)
        }
        "no-ambient-rng" => !is_test_path(path),
        "no-thread-spawn" => !is_test_path(path) && path != "crates/sim/src/serve.rs",
        "no-panic-decode" => DECODE_MODULES.contains(&path),
        "no-print-in-lib" => !is_test_path(path) && !is_bin_driver(path),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_the_contract_prose() {
        let om = &NO_ORDERED_MAP;
        assert!(applies(om, "crates/graph/src/storage.rs"));
        assert!(applies(om, "crates/core/src/engine.rs"));
        assert!(applies(om, "crates/derived/src/matching_native.rs"));
        assert!(!applies(om, "crates/core/src/invariant.rs"));
        assert!(!applies(om, "crates/derived/src/verify.rs"));
        assert!(!applies(om, "crates/graph/tests/foo.rs"));

        let time = &NO_AMBIENT_TIME;
        assert!(applies(time, "crates/core/src/engine.rs"));
        assert!(!applies(time, "crates/core/src/policy.rs"));
        assert!(!applies(time, "crates/bench/benches/engine_updates.rs"));
        assert!(!applies(time, "crates/sim/src/serve.rs"));
        assert!(!applies(time, "src/bin/mis_serve.rs"));
        assert!(!applies(time, "vendor/criterion/src/lib.rs"));

        let spawn = &NO_THREAD_SPAWN;
        assert!(applies(spawn, "crates/core/src/engine.rs"));
        assert!(applies(spawn, "crates/core/src/sharding.rs"));
        assert!(!applies(spawn, "crates/sim/src/serve.rs"));
        assert!(!applies(spawn, "crates/core/tests/thread_safety.rs"));

        let decode = &NO_PANIC_DECODE;
        assert!(applies(decode, "crates/core/src/durability/wal.rs"));
        assert!(!applies(decode, "crates/core/src/durability/io.rs"));

        let unsafe_rule = &FORBID_UNSAFE;
        assert!(applies(unsafe_rule, "crates/graph/src/lib.rs"));
        assert!(applies(unsafe_rule, "vendor/rand/src/lib.rs"));
        assert!(applies(unsafe_rule, "src/bin/mis_serve.rs"));
        assert!(!applies(unsafe_rule, "crates/graph/src/storage.rs"));

        let print = &NO_PRINT_IN_LIB;
        assert!(applies(print, "crates/core/src/engine.rs"));
        assert!(!applies(print, "src/bin/churn_demo.rs"));
        assert!(!applies(print, "crates/lint/src/main.rs"));
        assert!(!applies(print, "examples/quickstart.rs"));
        assert!(!applies(print, "crates/bench/benches/engine_updates.rs"));
    }

    #[test]
    fn every_rule_resolves_by_name() {
        for r in RULES {
            assert!(rule_by_name(r.name).is_some());
        }
        assert!(rule_by_name("no-such-rule").is_none());
    }
}

//! Doc-rot guard: every file path cited in the repo's prose docs must
//! still exist.
//!
//! Scans backtick spans in `DESIGN.md`, `vendor/README.md`, and
//! `README.md` for path-shaped tokens (contain a `/` or end in a known
//! source/doc extension) and asserts each resolves relative to the repo
//! root. Rust paths (`a::b`), flags (`--test`), and env vars (`$VAR`)
//! are out of scope by construction.

use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "vendor/README.md", "README.md"];
const EXTENSIONS: [&str; 7] = ["rs", "md", "toml", "json", "sh", "yml", "lock"];

/// A token that claims to be a repo file path.
fn path_like(token: &str) -> bool {
    if token.is_empty() || token.starts_with('-') || token.starts_with('$') {
        return false;
    }
    if !token
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-'))
    {
        return false;
    }
    let has_known_ext = Path::new(token)
        .extension()
        .is_some_and(|e| EXTENSIONS.iter().any(|&x| e == x));
    // Extension-less slash tokens must be all-lowercase paths: this keeps
    // directories (`crates/graph`) and drops type alternations written
    // with a slash (`NodeMap/NodeSet`).
    let lowercase_path = token.contains('/') && !token.chars().any(|c| c.is_ascii_uppercase());
    has_known_ext || lowercase_path
}

/// The Scale-tier section of `DESIGN.md` cites Rust items by name — a
/// rename there would silently strand the prose, since item names are
/// not path-shaped and escape [`cited_file_paths_resolve`]. Each cited
/// item must still be declared in the source file the section points
/// at, and must still be mentioned by the doc.
#[test]
fn cited_scale_tier_items_exist() {
    const ITEMS: [(&str, &str, &str); 8] = [
        (
            "crates/graph/src/generators.rs",
            "pub fn chung_lu",
            "chung_lu",
        ),
        (
            "crates/graph/src/stream.rs",
            "pub fn power_law_churn",
            "power_law_churn",
        ),
        (
            "crates/graph/src/stream.rs",
            "pub fn community_churn",
            "community_churn",
        ),
        (
            "crates/graph/src/stream.rs",
            "pub fn sliding_window_stream",
            "sliding_window_stream",
        ),
        (
            "crates/graph/src/storage.rs",
            "pub struct SettleFront",
            "SettleFront",
        ),
        (
            "crates/core/src/invariant.rs",
            "pub fn check_mis_invariant_sampled",
            "check_mis_invariant_sampled",
        ),
        ("crates/bench/src/families.rs", "ChungLu", "Family::ChungLu"),
        (
            "crates/core/src/engine.rs",
            "pub fn storage_regrows",
            "storage_regrows",
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    for (file, declaration, citation) in ITEMS {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(declaration),
            "{file} no longer declares `{declaration}` — update DESIGN.md"
        );
        assert!(
            design.contains(citation),
            "DESIGN.md dropped its `{citation}` citation — update this table"
        );
    }
}

/// Same guard for the Snapshot-read-path section: its cited items must
/// still be declared where the prose points, and the prose must still
/// mention them.
#[test]
fn cited_snapshot_tier_items_exist() {
    const ITEMS: [(&str, &str, &str); 4] = [
        (
            "crates/core/src/snapshot.rs",
            "pub struct MisReader",
            "MisReader",
        ),
        (
            "crates/core/src/api.rs",
            "pub fn build_with_reader",
            "build_with_reader",
        ),
        ("crates/sim/src/serve.rs", "pub struct ServeRun", "ServeRun"),
        (
            "tools/bench_gate.sh",
            "BENCH_GATE_SERVE_MAX_OVERHEAD",
            "BENCH_GATE_SERVE_MAX_OVERHEAD",
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    for (file, declaration, citation) in ITEMS {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(declaration),
            "{file} no longer declares `{declaration}` — update DESIGN.md"
        );
        assert!(
            design.contains(citation),
            "DESIGN.md dropped its `{citation}` citation — update this table"
        );
    }
}

/// Same guard for the Adaptive-ingest section: its cited items must
/// still be declared where the prose points, and the prose must still
/// mention them.
#[test]
fn cited_adaptive_ingest_items_exist() {
    const ITEMS: [(&str, &str, &str); 8] = [
        (
            "crates/core/src/policy.rs",
            "pub enum FlushPolicy",
            "FlushPolicy",
        ),
        (
            "crates/core/src/policy.rs",
            "pub struct ManualClock",
            "ManualClock",
        ),
        (
            "crates/core/src/policy.rs",
            "pub struct QueueDelay",
            "QueueDelay",
        ),
        (
            "crates/core/src/api.rs",
            "pub fn build_with_session",
            "build_with_session",
        ),
        (
            "crates/graph/src/stream.rs",
            "pub fn fresh_pair_stream",
            "fresh_pair_stream",
        ),
        (
            "crates/graph/src/stream.rs",
            "pub fn barrier_churn",
            "barrier_churn",
        ),
        (
            "crates/sim/src/config.rs",
            "pub struct RunConfig",
            "RunConfig",
        ),
        (
            "tools/bench_gate.sh",
            "BENCH_GATE_INGEST_P99_MAX_DELAY",
            "BENCH_GATE_INGEST_P99_MAX_DELAY",
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    for (file, declaration, citation) in ITEMS {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(declaration),
            "{file} no longer declares `{declaration}` — update DESIGN.md"
        );
        assert!(
            design.contains(citation),
            "DESIGN.md dropped its `{citation}` citation — update this table"
        );
    }
}

/// Same guard for the Durability-&-repair section: its cited items must
/// still be declared where the prose points, and the prose must still
/// mention them.
#[test]
fn cited_durability_items_exist() {
    const ITEMS: [(&str, &str, &str); 8] = [
        (
            "crates/core/src/durability/checkpoint.rs",
            "pub struct Checkpoint",
            "Checkpoint::restore",
        ),
        (
            "crates/core/src/durability/wal.rs",
            "pub struct WriteAheadLog",
            "scan-and-truncate",
        ),
        (
            "crates/core/src/durability/io.rs",
            "pub trait StorageIo",
            "StorageIo",
        ),
        (
            "crates/core/src/durability/io.rs",
            "pub struct FaultIo",
            "FaultIo",
        ),
        (
            "crates/core/src/api.rs",
            "pub fn set_wal_sink",
            "IngestSession::flush",
        ),
        (
            "crates/core/src/engine.rs",
            "pub fn verify_and_repair",
            "verify_and_repair",
        ),
        (
            "crates/sim/src/drill.rs",
            "pub fn crash_restart_drill",
            "crash_restart_drill",
        ),
        (
            "tools/bench_gate.sh",
            "BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO",
            "BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO",
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    for (file, declaration, citation) in ITEMS {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(declaration),
            "{file} no longer declares `{declaration}` — update DESIGN.md"
        );
        assert!(
            design.contains(citation),
            "DESIGN.md dropped its `{citation}` citation — update this table"
        );
    }
}

/// Same guard for the Static-contracts section: its cited items must
/// still be declared where the prose points, and the prose must still
/// mention them.
#[test]
fn cited_lint_items_exist() {
    const ITEMS: [(&str, &str, &str); 8] = [
        (
            "crates/lint/src/lexer.rs",
            "pub fn lex",
            "nested block comments",
        ),
        (
            "crates/lint/src/rules.rs",
            "pub const NO_ORDERED_MAP",
            "no-ordered-map-hot-path",
        ),
        (
            "crates/lint/src/rules.rs",
            "pub const NO_AMBIENT_TIME",
            "no-ambient-time",
        ),
        (
            "crates/lint/src/rules.rs",
            "pub const FORBID_UNSAFE",
            "forbid-unsafe-everywhere",
        ),
        (
            "crates/lint/src/engine.rs",
            "pub fn test_mask",
            "cfg_attr(test,",
        ),
        ("crates/lint/src/waiver.rs", "pub fn parse", "waiver rot"),
        (
            "crates/lint/src/main.rs",
            "\"--explain\"",
            "--explain <rule>",
        ),
        ("tools/lint_waivers.toml", "[ratchet]", "[ratchet]"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    for (file, declaration, citation) in ITEMS {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        assert!(
            source.contains(declaration),
            "{file} no longer declares `{declaration}` — update DESIGN.md"
        );
        assert!(
            design.contains(citation),
            "DESIGN.md dropped its `{citation}` citation — update this table"
        );
    }
}

#[test]
fn cited_file_paths_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        // Odd-indexed segments of a backtick split are inside spans;
        // fenced code blocks (``` pairs) land on even indexes and are
        // deliberately skipped — command lines are not path citations.
        for span in text.split('`').skip(1).step_by(2) {
            for raw in span.split_whitespace() {
                let token = raw.trim_end_matches([',', ';', ':', ')', '.']);
                if !path_like(token) {
                    continue;
                }
                checked += 1;
                if !root.join(token).exists() {
                    missing.push(format!("{doc} cites `{token}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "dangling doc pointers:\n{}",
        missing.join("\n")
    );
    assert!(checked >= 10, "scanner went blind: only {checked} tokens");
}

//! Compile-time thread-safety gate for the engines.
//!
//! Engines never spawn threads themselves, but whole engines are expected
//! to migrate across threads (a serving writer thread, a deployment
//! settling disjoint graphs on a thread pool), and the snapshot read path
//! shares published state with reader threads. These `const` items are
//! `static_assertions`-style trait checks: if any engine ever grows a
//! non-`Send`/non-`Sync` member (an `Rc`, a raw pointer, a thread-local
//! handle), this *test target fails to compile*, so the breakage is
//! attributed to this file, not buried in a build log.

use dmis_core::{BatchReceipt, DynamicMis, MisEngine, UpdateReceipt};

const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}

const _: () = assert_send::<MisEngine>();
const _: () = assert_sync::<MisEngine>();
const _: () = assert_send::<UpdateReceipt>();
const _: () = assert_send::<BatchReceipt>();
// The unified API's boxed form must stay thread-migratable too: the
// builder returns `Box<dyn DynamicMis + Send>` and the sim's ingestion
// runner carries one across its lifetime.
const _: () = assert_send::<Box<dyn DynamicMis + Send>>();

/// The assertions above are evaluated at compile time; this runtime test
/// exists so the target reports a green check (and exercises an engine
/// actually crossing a thread boundary once).
#[test]
fn engines_cross_thread_boundaries() {
    let (g, ids) = dmis_graph::generators::cycle(8);
    let mut engine = dmis_core::Engine::builder()
        .graph(g)
        .sharding(dmis_graph::ShardLayout::striped(2))
        .seed(1)
        .build_sharded();
    let mis = std::thread::spawn(move || {
        engine.remove_edge(ids[0], ids[1]).expect("valid edge");
        engine.mis()
    })
    .join()
    .expect("worker panicked");
    assert!(!mis.is_empty());
}

pub fn settle(shards: &mut [Shard]) {
    // Every dirty shard drains inline, in shard-index order; the engine
    // never spawns.
    for shard in shards.iter_mut() {
        shard.drain();
    }
}

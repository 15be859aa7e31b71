//@ path: crates/ingest/src/shard.rs

// The shard registry is the sanctioned construction site: a session
// opened here lives in exactly one shard's books. (The capture-side
// load generator, src/loadgen.rs, is the other.)
fn open_session() -> StreamDecoder {
    StreamDecoder::with_arq_resync()
}

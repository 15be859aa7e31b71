//@ path: crates/ingest/src/service.rs
//@ expect: raw-decoder@8
//@ expect: raw-decoder@9

// Fleet sessions opened outside the shard registry: the decoders'
// counters escape the shard's books.
fn rogue_session() {
    let rogue = StreamDecoder::with_arq_resync();
    let plain = StreamDecoder::default();
    let _ = (rogue, plain);
}

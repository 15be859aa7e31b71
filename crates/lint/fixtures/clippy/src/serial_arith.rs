//@ expect: clippy::disallowed_methods@14
//@ expect: clippy::disallowed_methods@18
//@ expect: clippy::disallowed_methods@22
//@ expect: clippy::disallowed_methods@26

// Raw integer arithmetic on wrapping serial numbers, the SessionLog bug
// class: a backwards jump under 32768 is a reordering, not a wrap, so
// `<` on raw stamps misorders records exactly at the seam.

use distscroll_host::telemetry::{Record, Stamp16};
use distscroll_hw::arq::Seq16;

pub fn is_stale(record: &Record, front: Stamp16) -> bool {
    record.stamp().raw() < front.raw()
}

pub fn next_expected(seq: Seq16) -> u16 {
    seq.raw() + 1
}

pub fn window_cursor(last: u16, frame_seq: Seq16) -> bool {
    last > frame_seq.raw()
}

pub fn tainted_flow(record_stamp: Stamp16) -> u16 {
    let stamp = record_stamp.raw();
    let shifted = stamp;
    shifted - 3
}

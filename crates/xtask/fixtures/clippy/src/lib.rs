//! Lint fixtures: each module is one known-bad or known-clean snippet.

pub mod attribute_no_reason;
pub mod clean;
pub mod fixed_tick;
pub mod hand_step;
pub mod hash_iter;
pub mod panic_lib;
pub mod raw_filter;
pub mod serial_arith;
pub mod shared_lock;
pub mod thread_spawn;
pub mod unfulfilled_expect;
pub mod unsafe_code;
pub mod unsafe_undocumented;
pub mod wall_clock;

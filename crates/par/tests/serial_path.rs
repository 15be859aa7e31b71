//! The premise of the benchmark's single-thread gate: a `jobs = 1` run,
//! or a fan-out over one item, spawns no helper, so
//! `pool_stats().workers_spawned` stays where it was. A real fan-out
//! moves it, so the gate is not vacuous.
//!
//! One test in its own binary: the counter is process-wide, and a
//! sibling test's fan-out would move it.

use std::time::Duration;

use distscroll_par::{par_for_each_mut, par_map, par_map_ctx, pool_stats};

#[test]
fn serial_and_single_item_fan_outs_spawn_no_worker() {
    let items: Vec<u32> = (0..64).collect();
    let mut owned = items.clone();
    let before = pool_stats().workers_spawned;

    assert_eq!(par_map(1, &items, |_, &x| x * 2).len(), 64);
    assert_eq!(par_map_ctx(1, &items, || 0u32, |_, _, &x| x).len(), 64);
    par_for_each_mut(1, &mut owned, |_, x| *x += 1);
    assert_eq!(par_map(8, &[7u32], |_, &x| x), vec![7]);
    assert_eq!(par_map_ctx(8, &[7u32], || (), |(), _, &x| x), vec![7]);
    par_for_each_mut(8, &mut owned[..1], |_, x| *x += 1);
    assert!(par_map(8, &[] as &[u32], |_, &x| x).is_empty());
    assert_eq!(
        pool_stats().workers_spawned,
        before,
        "a serial or single-item fan-out spawned a thread"
    );

    let slow = par_map(4, &items, |_, &x| {
        std::thread::sleep(Duration::from_micros(100));
        x
    });
    assert_eq!(slow, items);
    assert!(
        pool_stats().workers_spawned > before,
        "a fan-out at jobs 4 must spawn helpers, or the gate checks nothing"
    );
}

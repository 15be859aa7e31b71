//! Proof of the sink API's central claim: once the rings and scratch
//! buffers have warmed up, the steady-state `tick` → `poll_events` →
//! `poll_telemetry` loop performs **zero** heap allocations.
//!
//! A counting wrapper around the system allocator tallies allocation
//! calls per thread (the test harness itself runs multi-threaded, so a
//! process-global counter would pick up other tests' traffic). The
//! first test runs the PDA add-on — the onboard panels are powered down
//! and the host renders from telemetry — because that is the
//! configuration whose trial loops the eval harness runs hottest; the
//! second runs the paper profile, whose panels redraw over I2C. The last
//! guards device boot: the paper curve's fit runs once per process, so a
//! boot after the first allocates far less than one fit does.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_hw::board::Telemetry;
use distscroll_hw::power::Battery;

thread_local! {
    /// Allocation calls (alloc + realloc) made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls, then forwards everything to [`System`].
struct CountingAlloc;

#[expect(
    unsafe_code,
    reason = "a counting GlobalAlloc forwards to System, which takes unsafe"
)]
// SAFETY: every operation forwards verbatim to the system allocator;
// the only addition is a thread-local counter bump, which allocates
// nothing and upholds the GlobalAlloc contract by construction.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds GlobalAlloc's contract for `layout`;
        // it is forwarded to the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: frees are not counted; the call is the system allocator verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; both are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; all arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One steady-state iteration: advance the firmware one tick and drain
/// both streams through the borrow-based sinks.
fn tick_and_poll(dev: &mut DistScrollDevice, events: &mut u64, frames: &mut u64) {
    dev.tick().expect("battery is sized for the whole run");
    dev.poll_events(&mut |_: &TimedEvent| *events += 1);
    dev.poll_telemetry(&mut |_: &Telemetry| *frames += 1);
}

#[test]
fn steady_state_tick_and_poll_allocate_nothing() {
    let mut dev = DistScrollDevice::new(DeviceProfile::pda_addon(), Menu::flat(8), 20050607);
    dev.set_battery(Battery::with_capacity(1e12));
    dev.set_distance(15.0);

    let mut events = 0u64;
    let mut frames = 0u64;
    // Warm-up: the event ring, the board's in-flight and arrived queues
    // and the recycled frame-buffer pool all reach steady-state capacity.
    for _ in 0..2_000 {
        tick_and_poll(&mut dev, &mut events, &mut frames);
    }
    assert!(frames > 0, "telemetry must actually flow during warm-up");

    let frames_before = frames;
    let before = allocations_on_this_thread();
    for _ in 0..1_000 {
        tick_and_poll(&mut dev, &mut events, &mut frames);
    }
    let allocated = allocations_on_this_thread() - before;
    assert!(
        frames > frames_before,
        "telemetry must keep flowing during the measured window"
    );
    assert_eq!(
        allocated, 0,
        "steady-state tick + poll_events + poll_telemetry must not allocate"
    );
}

/// The same loop with both onboard panels lit: the lower panel's status
/// view redraws over I2C while the window runs, and the render and the
/// display commands reuse their buffers, so nothing allocates.
#[test]
fn steady_state_panel_redraws_allocate_nothing() {
    use distscroll_hw::display::DisplayRole;

    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(8), 20050607);
    dev.set_battery(Battery::with_capacity(1e12));
    dev.set_distance(15.0);

    let mut events = 0u64;
    let mut frames = 0u64;
    for _ in 0..2_000 {
        tick_and_poll(&mut dev, &mut events, &mut frames);
    }

    let redraws_before = dev.board().display(DisplayRole::Lower).clear_count();
    let events_before = events;
    let before = allocations_on_this_thread();
    for _ in 0..1_000 {
        tick_and_poll(&mut dev, &mut events, &mut frames);
    }
    let allocated = allocations_on_this_thread() - before;
    let redraws = dev.board().display(DisplayRole::Lower).clear_count() - redraws_before;
    assert!(redraws > 0, "the status view must redraw during the window");
    assert_eq!(events, events_before, "the hand holds still: no events");
    assert_eq!(allocated, 0, "{redraws} status redraws must not allocate");
}

/// Booting a device takes a copy of the process-wide paper curve rather
/// than refitting it: after one warm-up boot, a paper-profile boot makes
/// far fewer allocation calls than one fit of the same 27 points.
#[test]
fn boot_does_not_refit_the_paper_curve() {
    use distscroll_sensors::calibrate::fit_inverse_curve;
    use distscroll_sensors::gp2d120;

    let points: Vec<(f64, f64)> = (0..=26)
        .map(|i| {
            let d = 4.0 + f64::from(i);
            (d, gp2d120::ideal_voltage(d))
        })
        .collect();
    let before = allocations_on_this_thread();
    fit_inverse_curve(&points).expect("the ideal curve fits its own law");
    let fit_allocs = allocations_on_this_thread() - before;

    drop(DistScrollDevice::new(
        DeviceProfile::paper(),
        Menu::flat(8),
        20050607,
    ));
    let menu = Menu::flat(8);
    let before = allocations_on_this_thread();
    let dev = DistScrollDevice::new(DeviceProfile::paper(), menu, 20050607);
    let boot_allocs = allocations_on_this_thread() - before;
    drop(dev);

    assert!(
        fit_allocs > 64,
        "one fit makes {fit_allocs} allocation calls; the guard below assumes it is costly"
    );
    assert!(
        boot_allocs <= 32,
        "a warm boot made {boot_allocs} allocation calls (one fit makes {fit_allocs}): is the paper curve refitted per boot?"
    );
}

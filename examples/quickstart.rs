//! Quickstart: assemble the simulated DistScroll prototype, scroll the
//! fictive phone menu by moving the device, and select an entry.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example mirrors Figure 1 of the paper: a user scrolls through
//! menu entries by moving the device towards and away from their body;
//! the upper display shows the menu, the lower one shows state
//! information.

#![expect(
    clippy::expect_used,
    reason = "an example stops at the first broken step"
)]

use distscroll::core::device::DistScrollDevice;
use distscroll::core::phone_menu::phone_menu;
use distscroll::core::profile::DeviceProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's prototype configuration: 4-30 cm range, island mapping
    // with dead zones, right-handed button layout.
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 2005);

    println!("DistScroll quickstart — the paper's Figure 1, in simulation\n");

    // Hold the device at a few distances and watch the highlight move.
    for cm in [26.0, 17.0, 8.0] {
        dev.set_distance(cm);
        dev.run_for_ms(400)?;
        println!(
            "device at {:>4.1} cm  ->  highlighted: {:?} (entry {} of {})",
            cm,
            dev.highlighted_label(),
            dev.highlighted() + 1,
            dev.level_len()
        );
    }

    // Aim precisely at "Settings" (entry index 4) using the island
    // centre the firmware computed, then click the thumb button.
    let settings_cm = dev.island_center_cm(4).expect("settings exists");
    dev.set_distance(settings_cm);
    dev.run_for_ms(400)?;
    dev.click_select()?;
    println!(
        "\nclicked select at {settings_cm:.1} cm -> entered {:?}",
        dev.firmware().navigator().breadcrumb()
    );

    // What the user sees on the two displays right now:
    println!("\nupper display (menu):\n{}", dev.upper_display_art());
    println!(
        "\nlower display (state information):\n{}",
        dev.lower_display_art()
    );

    // And back out.
    dev.click_back()?;
    println!(
        "\nclicked back -> level {} ({} entries)",
        dev.level(),
        dev.level_len()
    );

    // The device also streamed telemetry to the host over the radio the
    // whole time:
    let mut frames = 0usize;
    dev.poll_telemetry(&mut |_t: &distscroll::hw::board::Telemetry| frames += 1);
    println!("telemetry frames received by the host so far: {frames}");

    Ok(())
}

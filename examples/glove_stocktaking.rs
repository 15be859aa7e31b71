//! The Section 5.2 stocktaking scenario: "one hand counts or scans the
//! items and the second hand operates the mobile device to input data on
//! these items" — in a cold warehouse, wearing a thick parka and gloves,
//! where touchscreens and styluses fail but DistScroll does not.
//!
//! ```text
//! cargo run --example glove_stocktaking
//! ```
//!
//! A worker walks a shelf of stock items; for each item the off hand
//! scans while the device hand scrolls a category menu by distance and
//! confirms with the (glove-friendly) thumb button.

use distscroll::baselines::distscroll::{select_loop, user_geometry};
use distscroll::core::device::DistScrollDevice;
use distscroll::core::menu::{Menu, MenuNode, Selection};
use distscroll::core::profile::DeviceProfile;
use distscroll::sensors::environment::{AmbientLight, Surface};
use distscroll::user::population::UserParams;
use distscroll::user::strategy::PositionAim;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The warehouse's category menu.
fn stock_menu() -> Menu {
    Menu::new(MenuNode::submenu(
        "Stock",
        vec![
            MenuNode::leaf("Bolts M4"),
            MenuNode::leaf("Bolts M6"),
            MenuNode::leaf("Nuts M4"),
            MenuNode::leaf("Nuts M6"),
            MenuNode::leaf("Washers"),
            MenuNode::leaf("Anchors"),
            MenuNode::leaf("Screws 3x20"),
            MenuNode::leaf("Screws 4x40"),
        ],
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(52);
    // A practiced warehouse worker; gloves blunt the fingers but the
    // distance gesture is unaffected — only button presses slow a little.
    let mut user = UserParams::expert();
    user.keystroke_s *= 1.3; // gloved thumb
    user.dwell_s *= 1.1;

    let profile = DeviceProfile::paper();
    let mut dev = DistScrollDevice::new(profile.clone(), stock_menu(), 52);
    // Winter kit: dark parka in a dim warehouse.
    dev.set_surface(Surface::DarkParka);
    dev.set_ambient(AmbientLight::Dark);

    println!("glove stocktaking — Section 5.2's first application area\n");
    println!("worker wears a dark parka and thick gloves; dim warehouse light\n");

    let shelf = [
        ("crate of M6 bolts", 1usize),
        ("bag of washers", 4),
        ("box of 3x20 screws", 6),
        ("crate of M4 nuts", 2),
        ("bag of anchors", 5),
        ("box of 4x40 screws", 7),
    ];

    let geometry = user_geometry(&profile, dev.level_len());

    let session_start = dev.now();
    let mut logged = 0;
    for (item, category) in shelf {
        let start_cm = dev.distance();
        let mut aim = PositionAim::new(user, geometry, category, start_cm, 50, &mut rng);
        let (took, selected) =
            select_loop(&mut dev, &mut aim, 20.0, &mut rng, |dev| dev.highlighted());
        let got = match selected {
            Some(Selection::Activated { mut path }) => path.pop().unwrap_or_default(),
            _ => "(none)".into(),
        };
        let want = stock_menu().root().children()[category].label().to_string();
        let ok = got == want;
        if ok {
            logged += 1;
        }
        println!(
            "scanned {:<20} logged as {:<12} in {:>4.1} s  {}",
            item,
            got,
            took,
            if ok { "ok" } else { "WRONG BIN" }
        );
    }

    let total = (dev.now() - session_start).as_secs_f64();
    println!(
        "\n{} of {} items logged correctly in {:.0} s ({:.1} items/min), one-handed, gloved",
        logged,
        shelf.len(),
        total,
        logged as f64 / total * 60.0
    );
    println!(
        "battery after the shift so far: {:.1}%",
        dev.board().battery_soc() * 100.0
    );
    Ok(())
}

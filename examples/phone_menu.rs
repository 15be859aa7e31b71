//! The Section 6 study session: a synthetic novice discovers the device
//! and learns to use the fictive mobile phone menu.
//!
//! ```text
//! cargo run --example phone_menu
//! ```
//!
//! Prints what the participant's displays show during the session and a
//! per-trial log mirroring what the authors' observers noted: prompt
//! discovery, then near-errorless use.

use distscroll::baselines::distscroll::{select_loop, user_geometry};
use distscroll::core::device::DistScrollDevice;
use distscroll::core::menu::Selection;
use distscroll::core::phone_menu::phone_menu;
use distscroll::core::profile::DeviceProfile;
use distscroll::user::population::UserParams;
use distscroll::user::strategy::PositionAim;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(6);
    let user = UserParams::typical(); // a novice with a learning curve
    let profile = DeviceProfile::paper();
    let mut dev = DistScrollDevice::new(profile.clone(), phone_menu(), 6);

    println!("DistScroll initial-study session — one synthetic participant\n");
    println!("task per trial: highlight a requested top-level entry and press select\n");

    let geometry = user_geometry(&profile, dev.level_len());

    let targets = [2usize, 5, 0, 4, 6, 1, 3, 5, 2, 4];
    for (trial, &target) in targets.iter().enumerate() {
        // The experimenter's prompt appears on the lower display, as §6
        // planned ("instructions which items are to be searched").
        let wanted_label = phone_menu().root().children()[target].label().to_string();
        dev.set_instruction(Some(&wanted_label));
        // Each trial starts wherever the hand ended up.
        let start_cm = dev.distance();
        let mut aim =
            PositionAim::new(user, geometry, target, start_cm, trial as u32 + 1, &mut rng);
        let (time, outcome) =
            select_loop(&mut dev, &mut aim, 20.0, &mut rng, |dev| dev.highlighted());
        let wanted = phone_menu().root().children()[target].label().to_string();
        let got = match outcome {
            Some(Selection::EnteredSubmenu { label }) => label,
            Some(Selection::Activated { path }) => path.join(" > "),
            None => "(timeout)".to_string(),
        };
        println!(
            "trial {:>2}: wanted {:<13} got {:<13} in {:>4.1} s  {}",
            trial + 1,
            wanted,
            got,
            time,
            if got.starts_with(&wanted) {
                "ok"
            } else {
                "MISS"
            }
        );
        // Back out if a submenu was entered, so every trial starts at the top.
        while dev.level() > 0 {
            dev.click_back()?;
        }
    }

    dev.set_instruction(None);
    dev.run_for_ms(300)?;
    println!("\nwhat the participant sees at the end of the session:");
    println!("{}", dev.upper_display_art());
    println!("{}", dev.lower_display_art());
    Ok(())
}

//! The experimenter's PC: log a live session over the wireless link and
//! reconstruct what the participant did.
//!
//! ```text
//! cargo run --example host_logger
//! ```
//!
//! The authors' prototype was "wirelessly linked to a PC" (Section 3.2);
//! this is that PC. A synthetic participant performs a few selections;
//! the host decodes the radio stream, segments it into selections and
//! replays the hand trajectory.

use distscroll::baselines::distscroll::{select_loop, user_geometry};
use distscroll::core::device::DistScrollDevice;
use distscroll::core::mapping::paper_curve;
use distscroll::core::phone_menu::phone_menu;
use distscroll::core::profile::DeviceProfile;
use distscroll::host::replay::Trajectory;
use distscroll::host::session::SessionLog;
use distscroll::host::telemetry::StreamDecoder;
use distscroll::hw::board::Telemetry;
use distscroll::user::population::UserParams;
use distscroll::user::strategy::PositionAim;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DeviceProfile::paper();
    let mut dev = DistScrollDevice::new(profile.clone(), phone_menu(), 44);
    let mut rng = StdRng::seed_from_u64(44);
    let user = UserParams::expert();
    let mut decoder = StreamDecoder::new();
    let mut log = SessionLog::new();

    println!("host logger — the PC side of the paper's wireless link\n");

    // The participant selects three top-level entries in a row.
    let geometry = user_geometry(&profile, dev.level_len());
    let mut drain = |dev: &mut DistScrollDevice| {
        dev.poll_telemetry(&mut |frame: &Telemetry| {
            log.ingest_all(decoder.push_bytes(&frame.bytes));
        });
    };
    for &target in &[1usize, 5, 3] {
        let mut aim = PositionAim::new(user, geometry, target, dev.distance(), 50, &mut rng);
        select_loop(&mut dev, &mut aim, 15.0, &mut rng, |dev| {
            drain(dev);
            dev.highlighted()
        });
        drain(&mut dev);
        // Entered a submenu? Back out for the next trial.
        while dev.level() > 0 {
            dev.click_back()?;
        }
        drain(&mut dev);
    }

    println!(
        "link: {} records decoded, {} crc failures, {} malformed\n",
        decoder.records_ok(),
        decoder.crc_failures(),
        decoder.records_bad()
    );

    println!("reconstructed selections:");
    for (i, s) in log.selections().iter().enumerate() {
        println!(
            "  #{:<2} {:>5.2} s  path through {:>2} entries, {} reversals, landed on {:?}",
            i + 1,
            s.duration_s,
            s.path.len(),
            s.reversals,
            s.selected
        );
    }

    let traj = Trajectory::from_log(&log, &paper_curve(), 0.010);
    println!(
        "\nhand trajectory: {:.1} cm total travel, {:.1} cm/s mean speed, {:.0}% dwelling",
        traj.travel_cm(),
        traj.mean_speed(),
        traj.dwell_fraction(0.15) * 100.0
    );
    println!("\n{}", traj.strip_chart(70, 12));

    println!(
        "csv export: {} rows (first two shown)",
        log.to_csv().lines().count() - 1
    );
    for line in log.to_csv().lines().take(3) {
        println!("  {line}");
    }
    Ok(())
}

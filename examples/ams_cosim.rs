//! Mixed-signal co-simulation (§4.3): the RF receiver described as a
//! behavioral netlist, elaborated into a continuous-time solver and run
//! inside the system testbench — plus the paper's two co-simulation
//! findings: the runtime penalty and the missing-noise artifact.
//!
//! ```sh
//! cargo run --release --example ams_cosim
//! ```

use wlan_ams::elaborate::DEFAULT_RECEIVER_NETLIST;
use wlan_ams::CosimReceiver;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{FrontEnd, LinkConfig, LinkSimulation};

fn main() {
    println!("behavioral netlist of the double-conversion receiver:\n");
    println!("{DEFAULT_RECEIVER_NETLIST}");

    let rx = CosimReceiver::new(80e6, 32, 4).expect("netlist elaborates");
    println!("elaborated device chain: {:?}\n", rx.device_names());

    // Run the same packet through the system-level model and the co-sim.
    let mk = |front_end: FrontEnd, packets: usize| {
        LinkSimulation::new(LinkConfig {
            rate: Rate::R12,
            psdu_len: 100,
            packets,
            rx_level_dbm: -92.0, // below sensitivity: noise decides the verdict
            front_end,
            ..LinkConfig::default()
        })
        .run()
    };

    let rf = RfConfig {
        lna_nf_db: wlan_units::Db(18.0), // a deliberately poor LNA
        ..RfConfig::default()
    };
    let baseband = mk(FrontEnd::RfBaseband(rf), 5);
    let cosim = mk(
        FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 32,
            noise_workaround: false,
        },
        5,
    );
    let cosim_fixed = mk(
        FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 32,
            noise_workaround: true,
        },
        5,
    );

    println!("below-sensitivity link (−92 dBm), poor-NF front end:");
    println!(
        "  system-level (with noise models) : BER {:.2e}   {} ms",
        baseband.ber(),
        baseband.elapsed.as_millis()
    );
    println!(
        "  co-simulation (no noise funcs)   : BER {:.2e}   {} ms   ← optimistic!",
        cosim.ber(),
        cosim.elapsed.as_millis()
    );
    println!(
        "  co-sim + noise workaround        : BER {:.2e}   {} ms",
        cosim_fixed.ber(),
        cosim_fixed.elapsed.as_millis()
    );
    println!(
        "\nThe noiseless co-simulation reports a better BER than the system\n\
         simulation — exactly the AMS-Designer artifact the paper describes\n\
         in §5.1 — and its solver takes {} analog sub-steps per packet, each\n\
         advancing {} states (paper Table 2: 30–40x the runtime; ~{}x on this\n\
         host).",
        cosim.analog_steps / cosim.packets as u64,
        rx.state_count(),
        (cosim.elapsed.as_secs_f64() / baseband.elapsed.as_secs_f64().max(1e-9)).round()
    );
}

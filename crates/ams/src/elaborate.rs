//! Elaboration: netlist → device cascade.

use crate::devices::{AnalogAgc, AnalogAmplifier, AnalogDevice, AnalogFilterDevice, AnalogMixer};
use crate::netlist::{Netlist, NetlistError};
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_units::{Db, Dbm, Hz};

/// The default double-conversion receiver netlist (paper Fig. 2),
/// parameterizable in tests/experiments by generating variants of this
/// text.
pub const DEFAULT_RECEIVER_NETLIST: &str = "\
# Double-conversion 802.11a receiver front end (complex envelope)
lna1  lna     rf  n1  gain=15 p1db=-5
mix1  mixer   n1  n2  gain=8
hpf1  hpf     n2  n3  fc=150k order=2
mix2  mixer   n3  n4  gain=6 dc=-45
lpf1  cheb_lp n4  out order=5 ripple=0.5 edge=10M
";

/// Builds the device cascade for a netlist chain from node `input` to
/// node `output`.
///
/// Supported models:
///
/// | model | parameters |
/// |---|---|
/// | `lna` / `amp` | `gain` (dB), optional `p1db` (dBm) or `iip3` (dBm) |
/// | `mixer` | `gain` (dB), optional `dc` (dBm) |
/// | `hpf` | `fc` (Hz), optional `order` (default 2) |
/// | `cheb_lp` | `edge` (Hz), optional `order` (default 5), `ripple` (dB, default 0.5) |
/// | `agc` | optional `target` (power, default 1), `tau` (s, default 2 µs), `loop` (1/s, default 2e5) |
///
/// # Errors
///
/// Returns a [`NetlistError`] for unknown models, missing parameters or
/// a broken chain.
pub fn elaborate(
    netlist: &Netlist,
    input: &str,
    output: &str,
) -> Result<Vec<Box<dyn AnalogDevice>>, NetlistError> {
    let chain = netlist.chain(input, output)?;
    let mut devices: Vec<Box<dyn AnalogDevice>> = Vec::with_capacity(chain.len());
    for inst in chain {
        let dev: Box<dyn AnalogDevice> = match inst.model.as_str() {
            "lna" | "amp" => {
                // Netlist text is the plain-number wire format; wrap the
                // parameters into dimension-safe types right here.
                let gain = Db(inst.param("gain")?);
                let nl = if let Some(&p1) = inst.params.get("p1db") {
                    Nonlinearity::rapp(Dbm(p1))
                } else if let Some(&ip3) = inst.params.get("iip3") {
                    Nonlinearity::Cubic { iip3_dbm: Dbm(ip3) }
                } else {
                    Nonlinearity::Linear
                };
                Box::new(AnalogAmplifier::new(inst.name.clone(), gain, nl))
            }
            "mixer" => {
                let gain = Db(inst.param("gain")?);
                let dc = inst.params.get("dc").copied().map(Dbm);
                Box::new(AnalogMixer::new(inst.name.clone(), gain, dc))
            }
            "hpf" => {
                let fc = Hz(inst.param("fc")?);
                let order = inst.param_or("order", 2.0) as usize;
                Box::new(AnalogFilterDevice::butterworth_highpass(
                    inst.name.clone(),
                    order,
                    fc,
                ))
            }
            "cheb_lp" => {
                let edge = Hz(inst.param("edge")?);
                let order = inst.param_or("order", 5.0) as usize;
                let ripple = Db(inst.param_or("ripple", 0.5));
                Box::new(AnalogFilterDevice::chebyshev_lowpass(
                    inst.name.clone(),
                    order,
                    ripple,
                    edge,
                ))
            }
            "agc" => {
                let target = inst.param_or("target", 1.0);
                let tau = inst.param_or("tau", 2e-6);
                let loop_gain = inst.param_or("loop", 2e5);
                Box::new(AnalogAgc::new(inst.name.clone(), target, tau, loop_gain))
            }
            other => {
                return Err(NetlistError::UnknownModel {
                    model: other.to_string(),
                    line: inst.line,
                })
            }
        };
        devices.push(dev);
    }
    Ok(devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::Complex;

    #[test]
    fn default_netlist_elaborates() {
        let n = Netlist::parse(DEFAULT_RECEIVER_NETLIST).unwrap();
        let devices = elaborate(&n, "rf", "out").expect("elaborates");
        assert_eq!(devices.len(), 5);
        assert_eq!(devices[0].name(), "lna1");
        assert_eq!(devices[4].name(), "lpf1");
    }

    #[test]
    fn cascade_processes_signal() {
        let n = Netlist::parse(DEFAULT_RECEIVER_NETLIST).unwrap();
        let mut devices = elaborate(&n, "rf", "out").unwrap();
        let dt = 1.0 / 320e6;
        // Drive with a small 1 MHz tone; the output should be an
        // amplified tone (total linear gain 29 dB ≈ ×28.2 amplitude).
        let amp_in = 1e-4;
        let mut p_out = 0.0;
        let n_steps = 200_000;
        let mut counted = 0;
        for i in 0..n_steps {
            let t = i as f64 * dt;
            let mut v = Complex::from_polar(amp_in, 2.0 * std::f64::consts::PI * 1e6 * t);
            for d in devices.iter_mut() {
                v = d.step(v, dt);
            }
            if i > n_steps / 2 {
                p_out += v.norm_sqr();
                counted += 1;
            }
        }
        let gain = ((p_out / counted as f64).sqrt() / amp_in).log10() * 20.0;
        assert!((gain - 29.0).abs() < 1.0, "cascade gain {gain} dB");
    }

    #[test]
    fn memoryless_flags_per_model() {
        // (netlist line, memoryless, continuous states) for every model.
        let cases = [
            ("d lna rf out gain=15 p1db=-5", true, 0),
            ("d amp rf out gain=0 iip3=-10", true, 0),
            ("d amp rf out gain=3", true, 0),
            ("d mixer rf out gain=6 dc=-45", true, 0),
            ("d hpf rf out fc=150k order=2", false, 2),
            ("d cheb_lp rf out edge=10M order=5", false, 5),
            ("d agc rf out", false, 2),
        ];
        for (line, memoryless, states) in cases {
            let n = Netlist::parse(&format!("{line}\n")).unwrap();
            let d = elaborate(&n, "rf", "out").unwrap();
            assert_eq!(d[0].memoryless(), memoryless, "{line}");
            assert_eq!(d[0].state_count(), states, "{line}");
        }
    }

    #[test]
    fn unknown_model_rejected() {
        let n = Netlist::parse("x warp rf out flux=1\n").unwrap();
        assert!(matches!(
            elaborate(&n, "rf", "out"),
            Err(NetlistError::UnknownModel { .. })
        ));
    }

    #[test]
    fn missing_param_rejected() {
        let n = Netlist::parse("a amp rf out nf=3\n").unwrap();
        assert!(matches!(
            elaborate(&n, "rf", "out"),
            Err(NetlistError::MissingParam { .. })
        ));
    }

    #[test]
    fn amp_nonlinearity_selection() {
        let n = Netlist::parse("a amp rf out gain=0 iip3=-10\n").unwrap();
        let mut d = elaborate(&n, "rf", "out").unwrap();
        // Drive at IIP3-level power: cubic model compresses visibly.
        let a = (2.0 * wlan_dsp::math::dbm_to_watts(-12.0)).sqrt();
        let y = d[0].step(Complex::from_re(a), 1e-9);
        assert!(y.re < a * 0.95);
    }
}

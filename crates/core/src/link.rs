//! The end-to-end link testbench: transmitter → channel (+ adjacent
//! channel) → RF front-end at a chosen abstraction level → DSP receiver
//! → BER/EVM meters.

use std::time::{Duration, Instant};
use wlan_ams::CosimReceiver;
use wlan_channel::awgn::Awgn;
use wlan_channel::fading::MultipathChannel;
use wlan_channel::interferer::SceneRenderer;
use wlan_dsp::{Complex, Rng};
use wlan_exec::{split_seed, ThreadPool};
use wlan_meas::montecarlo::{run_sharded, EarlyStop, McAccumulator, McPlan};
use wlan_meas::BerMeter;
use wlan_phy::receiver::RxScratch;
use wlan_phy::transmitter::TxScratch;
use wlan_phy::{OfdmProfile, Rate, Receiver, Transmitter, IEEE_802_11A};
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};

/// Adjacent-channel interferer description (paper §4.1: a duplicated
/// transmitter shifted by 20 MHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdjacentChannel {
    /// Center-frequency offset in Hz (±20 MHz for the first adjacent
    /// channel).
    pub offset_hz: f64,
    /// Level relative to the wanted channel in dB (paper: +16 dB for the
    /// first adjacent, +32 dB for the alternate channel).
    pub rel_db: f64,
}

impl AdjacentChannel {
    /// The paper's first adjacent channel: +20 MHz, +16 dB.
    pub fn first() -> Self {
        AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 16.0,
        }
    }

    /// The paper's alternate (non-adjacent) channel: +40 MHz, +32 dB.
    pub fn alternate() -> Self {
        AdjacentChannel {
            offset_hz: 40e6,
            rel_db: 32.0,
        }
    }
}

/// RF front-end abstraction level.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // RfConfig is plain-old-data config
pub enum FrontEnd {
    /// No RF part: the DSP receiver sees the channel output directly at
    /// 20 Msps.
    Ideal,
    /// Complex-baseband behavioral RF models (SPW level).
    RfBaseband(RfConfig),
    /// Netlist-elaborated continuous-time co-simulation (AMS level).
    RfCosim {
        /// Channel-select filter edge in Hz.
        filter_edge_hz: f64,
        /// Analog solver sub-steps per 80 Msps sample.
        analog_osr: usize,
        /// Apply the paper's workaround of injecting the missing noise
        /// in the discrete-time part of the co-simulation.
        noise_workaround: bool,
    },
}

impl FrontEnd {
    /// The default co-simulation front end (no noise — reproducing the
    /// paper's AMS limitation).
    pub fn default_cosim() -> Self {
        FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 8,
            noise_workaround: false,
        }
    }
}

/// Link simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// OFDM numerology profile (802.11a by default); sets the FFT grid
    /// and the DSP-side sample rate of the whole link.
    pub profile: &'static OfdmProfile,
    /// 802.11a data rate.
    pub rate: Rate,
    /// PSDU length in bytes.
    pub psdu_len: usize,
    /// Number of packets to simulate.
    pub packets: usize,
    /// Master seed (packets use derived streams).
    pub seed: u64,
    /// Wanted-channel level at the RF input in dBm (RF modes).
    pub rx_level_dbm: f64,
    /// AWGN SNR in dB for [`FrontEnd::Ideal`]; `None` = noiseless.
    /// Ignored in RF modes (noise comes from the RF models and the
    /// thermal floor).
    pub snr_db: Option<f64>,
    /// RMS delay spread of a Rayleigh multipath channel; `None` = flat.
    pub multipath_trms_s: Option<f64>,
    /// Optional adjacent-channel interferer.
    pub adjacent: Option<AdjacentChannel>,
    /// Front-end abstraction level.
    pub front_end: FrontEnd,
    /// Scene oversampling ratio for the RF modes.
    pub osr: usize,
}

/// Zero samples appended to the wanted burst before the scene renders
/// it: the front-end filters delay the burst by tens of samples, and
/// without tail room the last OFDM symbols would fall off the end of the
/// processed buffer.
const SCENE_TAIL_PAD: usize = 160;

impl LinkConfig {
    /// System-rate samples per packet that an RF front end processes:
    /// the wanted burst and its tail pad, upsampled by `osr`, behind the
    /// renderer's one-FFT-length delay. The adjacent channel is shorter
    /// and never extends the scene.
    pub fn scene_len(&self) -> usize {
        let burst = self.profile.burst_len(self.rate, self.psdu_len);
        (self.profile.fft_size + burst + SCENE_TAIL_PAD) * self.osr
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            profile: &IEEE_802_11A,
            rate: Rate::R24,
            psdu_len: 100,
            packets: 10,
            seed: 1,
            rx_level_dbm: -55.0,
            snr_db: None,
            multipath_trms_s: None,
            adjacent: None,
            front_end: FrontEnd::Ideal,
            osr: 4,
        }
    }
}

/// Link simulation results.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Packets simulated.
    pub packets: usize,
    /// Packets that decoded (detected and parsed; may still carry bit
    /// errors).
    pub decoded_packets: usize,
    /// BER meter with totals.
    pub meter: BerMeter,
    /// Mean EVM (dB) over decoded packets with a finite EVM, `None` if
    /// there are none.
    pub evm_db: Option<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Analog solver sub-steps the co-simulation front end took
    /// ([`CosimReceiver::steps_taken`] summed over shards); 0 for the
    /// other front ends.
    pub analog_steps: u64,
}

impl LinkReport {
    /// The report of the packets accumulated in `acc`, which took
    /// `elapsed`. The mean EVM divides the running per-packet sum once,
    /// at the end, so a session served in chunks reports the same bits
    /// as [`LinkSimulation::run`].
    pub(crate) fn from_shard(acc: ShardReport, elapsed: Duration) -> Self {
        LinkReport {
            packets: acc.packets,
            decoded_packets: acc.decoded_packets,
            meter: acc.meter,
            evm_db: if acc.evm_packets > 0 {
                Some(acc.evm_sum_db / acc.evm_packets as f64)
            } else {
                None
            },
            elapsed,
            analog_steps: acc.analog_steps,
        }
    }

    /// Bit error rate.
    pub fn ber(&self) -> f64 {
        self.meter.ber()
    }

    /// Packet error rate.
    pub fn per(&self) -> f64 {
        self.meter.per()
    }
}

/// Per-run (or per-shard) front-end and noise state: the filters settle
/// across consecutive packets of the same stream, and all per-packet
/// working buffers live in the [`PacketScratch`] arena.
pub(crate) struct FrontEndState {
    bb: Option<DoubleConversionReceiver>,
    cosim: Option<CosimReceiver>,
    noise: Awgn,
    scratch: PacketScratch,
}

/// Per-packet buffer arena: every transmit/channel/receive intermediate
/// of the hot loop. Buffers retain capacity between packets, so
/// steady-state simulation of every front-end level — including the
/// oversampled scene renderer and the multipath channel of the RF
/// paths — performs zero heap allocation.
struct PacketScratch {
    /// Transmitted PSDU of the current packet.
    psdu: Vec<u8>,
    /// Long-lived transmitter, re-seeded per packet.
    tx: Transmitter,
    txs: TxScratch,
    /// Burst samples (multipath replaces them in place).
    burst: Vec<Complex>,
    /// Padded + noisy channel output ([`FrontEnd::Ideal`]).
    chan: Vec<Complex>,
    /// Receiver working buffers; holds the decoded PSDU after a success.
    rx: RxScratch,
    rf: RfScratch,
    /// Decimated front-end output (RF modes).
    rf_out: Vec<Complex>,
    /// Adjacent-channel interferer payload.
    adj_psdu: Vec<u8>,
    /// Wanted burst plus the [`SCENE_TAIL_PAD`] trailing zeros.
    padded: Vec<Complex>,
    /// Multipath convolution output (swapped back into `burst`).
    faded: Vec<Complex>,
    /// Per-run multipath realization, taps redrawn in place per packet.
    chan_model: MultipathChannel,
    /// Reused oversampled scene renderer (RF modes).
    renderer: SceneRenderer,
    /// Long-lived adjacent-channel transmitter, re-seeded per packet.
    adj_tx: Transmitter,
    /// Adjacent-channel burst samples.
    adj_burst: Vec<Complex>,
    /// Composite oversampled scene (RF modes).
    scene: Vec<Complex>,
}

impl PacketScratch {
    fn new(rate: Rate, profile: &'static OfdmProfile, osr: usize) -> Self {
        // Worst-case SIGNAL LENGTH capacity up front: a rare decode
        // candidate with a large (or corrupted) LENGTH field must not
        // grow the receive scratch past the warm-up high-water mark.
        let mut rx = RxScratch::default();
        rx.reserve_worst_case();
        PacketScratch {
            psdu: Vec::new(),
            tx: Transmitter::with_profile(rate, profile),
            txs: TxScratch::default(),
            burst: Vec::new(),
            chan: Vec::new(),
            rx,
            rf: RfScratch::default(),
            rf_out: Vec::new(),
            adj_psdu: Vec::new(),
            padded: Vec::new(),
            faded: Vec::new(),
            chan_model: MultipathChannel::identity(),
            renderer: SceneRenderer::new(profile.sample_rate, osr),
            adj_tx: Transmitter::with_profile(rate, profile),
            adj_burst: Vec::new(),
            scene: Vec::new(),
        }
    }
}

/// What one simulated packet produced. The payload bytes stay in the
/// [`PacketScratch`]: `scratch.psdu` (transmitted) and `scratch.rx.psdu`
/// (decoded).
pub(crate) enum PacketOutcome {
    Decoded { evm_db: f64 },
    Lost,
}

/// Accumulated result of a run of consecutive frames: one Monte-Carlo
/// shard with its own seed stream (merged in shard order by the
/// parallel driver), a whole serial run, or a served session so far.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// BER statistics over the shard's frames.
    pub meter: BerMeter,
    /// Frames that decoded.
    pub decoded_packets: usize,
    /// Sum of per-packet EVM (dB) over decoded frames with a finite
    /// EVM.
    pub evm_sum_db: f64,
    /// Decoded frames whose EVM entered `evm_sum_db`. A non-finite EVM
    /// (`−inf` dB from an error-free constellation) is left out, so it
    /// cannot poison the mean.
    pub evm_packets: usize,
    /// Frames simulated.
    pub packets: usize,
    /// Analog solver sub-steps of the shard's co-simulation front end
    /// (0 for the other front ends).
    pub analog_steps: u64,
}

impl ShardReport {
    /// Books one packet: a decoded packet compares the transmitted and
    /// decoded payloads left in `fe`'s arena, a lost one counts every
    /// payload bit as an error.
    pub(crate) fn record(&mut self, outcome: PacketOutcome, fe: &FrontEndState) {
        let sent = &fe.scratch.psdu;
        match outcome {
            PacketOutcome::Decoded { evm_db } => {
                self.meter.update_bytes(sent, &fe.scratch.rx.psdu);
                if evm_db.is_finite() {
                    self.evm_sum_db += evm_db;
                    self.evm_packets += 1;
                }
                self.decoded_packets += 1;
            }
            PacketOutcome::Lost => self.meter.update_lost_packet(8 * sent.len()),
        }
        self.packets += 1;
        // The co-simulation receiver is built with the shard (or the
        // session), so its running count is the shard's.
        self.analog_steps = fe.cosim.as_ref().map_or(0, CosimReceiver::steps_taken);
    }
}

impl McAccumulator for ShardReport {
    fn meter(&self) -> &BerMeter {
        &self.meter
    }

    fn absorb(&mut self, other: Self) {
        self.meter.merge(&other.meter);
        self.decoded_packets += other.decoded_packets;
        self.evm_sum_db += other.evm_sum_db;
        self.evm_packets += other.evm_packets;
        self.packets += other.packets;
        self.analog_steps += other.analog_steps;
    }
}

/// Options for the sharded Monte-Carlo schedule of
/// [`LinkSimulation::run_parallel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McRun {
    /// Sweep-point index, the second coordinate of
    /// [`wlan_exec::split_seed`]; distinct points at the same master
    /// seed get independent streams.
    pub point_index: u64,
    /// Frames per shard. Small shards balance better across workers;
    /// the shard decomposition (not the thread count) defines the
    /// result.
    pub shard_packets: usize,
    /// Shards per early-stopping wave (see
    /// [`wlan_meas::montecarlo::McPlan::wave`]).
    pub wave: usize,
    /// Optional adaptive stopping rule.
    pub early_stop: Option<EarlyStop>,
}

impl Default for McRun {
    fn default() -> Self {
        McRun {
            point_index: 0,
            shard_packets: 1,
            wave: 8,
            early_stop: None,
        }
    }
}

/// The link simulation engine.
#[derive(Debug, Clone)]
pub struct LinkSimulation {
    config: LinkConfig,
}

impl LinkSimulation {
    /// Creates a simulation from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero packets or PSDU length.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.packets > 0, "need at least one packet");
        assert!(config.psdu_len > 0, "PSDU must not be empty");
        LinkSimulation { config }
    }

    /// The configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Runs all packets and accumulates the report.
    pub fn run(&self) -> LinkReport {
        let started = Instant::now();
        let report = self.run_shard(0, self.config.packets, self.config.seed);
        LinkReport::from_shard(report, started.elapsed())
    }

    /// Runs one shard of the Monte-Carlo schedule: `packets` frames with
    /// global indices `first_packet..first_packet + packets`, with all
    /// randomness drawn from the shard's own `seed` stream.
    ///
    /// Global packet indices keep the scrambler-seed schedule aligned
    /// with frame identity, so the shard decomposition — not the
    /// execution order — defines the result.
    pub fn run_shard(&self, first_packet: usize, packets: usize, seed: u64) -> ShardReport {
        let mut rng = Rng::new(seed);
        let mut fe = self.front_end_state(seed);
        let rx = Receiver::with_profile(self.config.profile);
        let mut report = ShardReport::default();
        for pkt in first_packet..first_packet + packets {
            let outcome = self.sim_packet(pkt, &mut rng, &mut fe, &rx);
            report.record(outcome, &fe);
        }
        report
    }

    /// Runs the configured frame budget as a sharded Monte-Carlo
    /// schedule on the pool.
    ///
    /// Every shard derives its RNG stream from
    /// `split_seed(seed, point_index, shard_index)`, so the result is
    /// **bit-identical for any thread count** (including a serial
    /// 1-worker pool) and early stopping — checked at fixed wave
    /// boundaries — is equally scheduling-invariant. With early
    /// stopping enabled, [`LinkReport::packets`] records the frames
    /// actually simulated, which may be fewer than the configured
    /// budget.
    ///
    /// Note this is a *different estimator* from [`LinkSimulation::run`]
    /// (shards restart the front-end filters and consume independent
    /// streams), so its BER differs from the legacy serial loop by
    /// ordinary Monte-Carlo variation — but never between two
    /// executions of itself.
    pub fn run_parallel(&self, pool: &ThreadPool, mc: &McRun) -> LinkReport {
        let cfg = &self.config;
        let started = Instant::now();
        let shard_packets = mc.shard_packets.max(1);
        let shards = cfg.packets.div_ceil(shard_packets);
        let plan = McPlan {
            shards,
            wave: mc.wave,
            early_stop: mc.early_stop,
        };
        let outcome = run_sharded(pool, &plan, |shard| {
            let first = shard * shard_packets;
            let n = shard_packets.min(cfg.packets - first);
            self.run_shard(first, n, split_seed(cfg.seed, mc.point_index, shard as u64))
        });
        LinkReport::from_shard(outcome.acc, started.elapsed())
    }

    /// Builds the per-run front-end state (filters settle across the
    /// packets of one serial run or one shard).
    pub(crate) fn front_end_state(&self, seed: u64) -> FrontEndState {
        let cfg = &self.config;
        let bb = match &cfg.front_end {
            FrontEnd::RfBaseband(rf) => {
                // The front end must run at the scene's oversampled rate.
                let mut rf = *rf;
                rf.sample_rate_hz = wlan_units::Hz(cfg.profile.sample_rate * cfg.osr as f64);
                rf.osr = cfg.osr;
                Some(DoubleConversionReceiver::new(rf, seed ^ 0xABCD))
            }
            _ => None,
        };
        let cosim = match &cfg.front_end {
            FrontEnd::RfCosim {
                filter_edge_hz,
                analog_osr,
                ..
            } => Some(
                CosimReceiver::with_filter_edge(
                    *filter_edge_hz,
                    cfg.profile.sample_rate * cfg.osr as f64,
                    *analog_osr,
                    cfg.osr,
                )
                .expect("built-in netlist elaborates"),
            ),
            _ => None,
        };
        FrontEndState {
            bb,
            cosim,
            noise: Awgn::new(seed ^ 0x5EED),
            scratch: PacketScratch::new(cfg.rate, cfg.profile, cfg.osr),
        }
    }

    /// Simulates one packet: transmit, channel, front end, receive. All
    /// buffers come from the [`PacketScratch`] arena in `fe`.
    pub(crate) fn sim_packet(
        &self,
        pkt: usize,
        rng: &mut Rng,
        fe: &mut FrontEndState,
        rx: &Receiver,
    ) -> PacketOutcome {
        let cfg = &self.config;
        let FrontEndState {
            bb,
            cosim,
            noise,
            scratch,
        } = fe;
        let PacketScratch {
            psdu,
            tx,
            txs,
            burst,
            chan,
            rx: rxs,
            rf,
            rf_out,
            adj_psdu,
            padded,
            faded,
            chan_model,
            renderer,
            adj_tx,
            adj_burst,
            scene,
        } = scratch;

        psdu.clear();
        psdu.resize(cfg.psdu_len, 0);
        rng.bytes(psdu);
        let seed_bits = ((pkt as u8).wrapping_mul(37) % 127) + 1;
        tx.set_scrambler_seed(seed_bits);
        tx.transmit_into(psdu, txs, burst);

        // Optional multipath (one realization per packet, taps redrawn
        // into the arena-held channel).
        if let Some(trms) = cfg.multipath_trms_s {
            chan_model.regenerate_rayleigh_exponential(trms, cfg.profile.sample_rate, rng);
            chan_model.apply_into(burst, faded);
            std::mem::swap(burst, faded);
        }

        let dsp_input: &[Complex] = match &cfg.front_end {
            FrontEnd::Ideal => {
                chan.clear();
                chan.reserve(burst.len() + 400);
                chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                chan.extend_from_slice(burst);
                chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                if let Some(snr) = cfg.snr_db {
                    // Noise power relative to burst power (≈1).
                    let np = wlan_dsp::math::db_to_lin(-snr);
                    noise.add_noise_power_in_place(chan, np);
                }
                chan
            }
            FrontEnd::RfBaseband(_) | FrontEnd::RfCosim { .. } => {
                Self::build_scene_into(
                    cfg, pkt, rng, burst, padded, renderer, adj_tx, txs, adj_psdu, adj_burst, scene,
                );
                self.add_frontend_noise(scene, cfg, noise);
                match (bb, cosim) {
                    (Some(fe), _) => fe.process_into(scene, rf, rf_out),
                    (_, Some(fe)) => fe.process_into(scene, rf_out),
                    _ => unreachable!(),
                }
                rf_out
            }
        };

        match rx.receive_into(dsp_input, rxs) {
            Ok(sum) if rxs.psdu.len() == psdu.len() => PacketOutcome::Decoded {
                evm_db: sum.evm_db(),
            },
            _ => PacketOutcome::Lost,
        }
    }

    /// Builds the oversampled scene into the arena: wanted channel at the
    /// configured level plus the optional adjacent channel (a duplicated
    /// transmitter with independent payload). Allocation-free in steady
    /// state; bit-identical to rendering the same emitters through the
    /// allocating [`wlan_channel::interferer::Scene`] builder.
    #[allow(clippy::too_many_arguments)] // borrow-split arena fields
    fn build_scene_into(
        cfg: &LinkConfig,
        pkt: usize,
        rng: &mut Rng,
        wanted: &[Complex],
        padded: &mut Vec<Complex>,
        renderer: &mut SceneRenderer,
        adj_tx: &mut Transmitter,
        txs: &mut TxScratch,
        adj_psdu: &mut Vec<u8>,
        adj_burst: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) {
        padded.clear();
        padded.reserve(wanted.len() + SCENE_TAIL_PAD);
        padded.extend_from_slice(wanted);
        padded.extend(std::iter::repeat_n(Complex::ZERO, SCENE_TAIL_PAD));
        out.clear();
        renderer.add_into(
            padded,
            wlan_units::Hz(0.0),
            wlan_units::Dbm(cfg.rx_level_dbm),
            cfg.profile.fft_size * cfg.osr,
            out,
        );
        if let Some(adj) = cfg.adjacent {
            adj_psdu.clear();
            adj_psdu.resize(cfg.psdu_len, 0);
            rng.bytes(adj_psdu);
            let adj_seed = ((pkt as u8).wrapping_mul(53) % 127) + 1;
            adj_tx.set_scrambler_seed(adj_seed);
            adj_tx.transmit_into(adj_psdu, txs, adj_burst);
            renderer.add_into(
                adj_burst,
                wlan_units::Hz(adj.offset_hz),
                wlan_units::Dbm(cfg.rx_level_dbm + adj.rel_db),
                0,
                out,
            );
        }
    }

    /// Adds the antenna thermal floor in place. The paper's co-simulation
    /// could not generate noise in the analog part; the
    /// `noise_workaround` flag reproduces the suggested fix of adding it
    /// in the discrete-time part.
    fn add_frontend_noise(&self, scene: &mut [Complex], cfg: &LinkConfig, noise: &mut Awgn) {
        let fs = cfg.profile.sample_rate * cfg.osr as f64;
        let floor = wlan_rf::noise::source_noise_power(fs);
        match &cfg.front_end {
            FrontEnd::RfBaseband(_) => noise.add_noise_power_in_place(scene, floor),
            FrontEnd::RfCosim {
                noise_workaround, ..
            } => {
                if *noise_workaround {
                    // Approximate the whole cascade's input-referred noise
                    // (floor × system noise figure budget ≈ +6 dB).
                    noise.add_noise_power_in_place(scene, floor * 4.0);
                }
            }
            FrontEnd::Ideal => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: LinkConfig) -> LinkReport {
        LinkSimulation::new(cfg).run()
    }

    #[test]
    fn ideal_noiseless_is_error_free() {
        let r = quick(LinkConfig {
            packets: 3,
            snr_db: None,
            ..LinkConfig::default()
        });
        assert_eq!(r.ber(), 0.0);
        assert_eq!(r.decoded_packets, 3);
        assert!(r.evm_db.unwrap() < -35.0);
    }

    #[test]
    fn mean_evm_skips_non_finite_packets() {
        let sim = LinkSimulation::new(LinkConfig::default());
        let fe = sim.front_end_state(1);
        let decoded = |evm_db| PacketOutcome::Decoded { evm_db };
        let mut acc = ShardReport::default();
        acc.record(decoded(f64::NEG_INFINITY), &fe);
        acc.record(decoded(-20.0), &fe);
        acc.record(decoded(f64::NAN), &fe);
        acc.record(decoded(-30.0), &fe);
        acc.record(PacketOutcome::Lost, &fe);
        let r = LinkReport::from_shard(acc, Duration::ZERO);
        assert_eq!((r.packets, r.decoded_packets), (5, 4));
        assert_eq!(r.evm_db, Some(-25.0));

        // Decoded packets, none with a finite EVM: no mean at all.
        let mut acc = ShardReport::default();
        acc.record(decoded(f64::NEG_INFINITY), &fe);
        let mut other = ShardReport::default();
        other.record(decoded(f64::NEG_INFINITY), &fe);
        acc.absorb(other);
        let r = LinkReport::from_shard(acc, Duration::ZERO);
        assert_eq!((r.decoded_packets, r.evm_db), (2, None));
    }

    #[test]
    fn ideal_noiseless_is_error_free_every_profile() {
        for profile in wlan_phy::ALL_PROFILES {
            let r = quick(LinkConfig {
                profile,
                packets: 3,
                snr_db: None,
                ..LinkConfig::default()
            });
            assert_eq!(r.ber(), 0.0, "{} ber", profile.name);
            assert_eq!(r.decoded_packets, 3, "{} decoded", profile.name);
        }
    }

    #[test]
    fn ideal_awgn_decodes_every_profile() {
        // Moderate SNR through the AWGN path: sample-rate-dependent code
        // (CFO, noise scaling) must hold for non-20 MHz numerologies too.
        for profile in wlan_phy::ALL_PROFILES {
            let r = quick(LinkConfig {
                profile,
                packets: 3,
                snr_db: Some(30.0),
                ..LinkConfig::default()
            });
            assert_eq!(r.ber(), 0.0, "{} ber {}", profile.name, r.ber());
        }
    }

    #[test]
    fn ideal_low_snr_fails() {
        let r = quick(LinkConfig {
            packets: 3,
            rate: Rate::R54,
            snr_db: Some(5.0),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn ideal_snr_ordering() {
        let mk = |snr: f64| {
            quick(LinkConfig {
                packets: 4,
                rate: Rate::R36,
                snr_db: Some(snr),
                seed: 3,
                ..LinkConfig::default()
            })
            .ber()
        };
        let low = mk(8.0);
        let high = mk(30.0);
        assert!(low > high, "low-SNR {low} vs high-SNR {high}");
        assert_eq!(high, 0.0);
    }

    #[test]
    fn rf_baseband_strong_signal_decodes() {
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert_eq!(
            r.ber(),
            0.0,
            "per {} decoded {}",
            r.per(),
            r.decoded_packets
        );
    }

    #[test]
    fn rf_baseband_below_sensitivity_fails() {
        let r = quick(LinkConfig {
            packets: 2,
            rate: Rate::R54,
            rx_level_dbm: -95.0,
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn adjacent_channel_tolerated_with_good_filter() {
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            ..LinkConfig::default()
        });
        assert!(
            r.ber() < 0.02,
            "adjacent channel broke the link: {}",
            r.ber()
        );
    }

    #[test]
    fn narrow_filter_with_adjacent_fails() {
        let rf = RfConfig {
            channel_filter_edge_hz: wlan_units::Hz(3e6), // destroys the signal band
            ..RfConfig::default()
        };
        let r = quick(LinkConfig {
            packets: 2,
            rx_level_dbm: -50.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(rf),
            ..LinkConfig::default()
        });
        assert!(r.ber() > 0.05, "ber {}", r.ber());
    }

    #[test]
    fn cosim_strong_signal_decodes() {
        let r = quick(LinkConfig {
            packets: 1,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::RfCosim {
                filter_edge_hz: 10e6,
                analog_osr: 4,
                noise_workaround: false,
            },
            ..LinkConfig::default()
        });
        assert_eq!(r.ber(), 0.0, "decoded {}", r.decoded_packets);
    }

    #[test]
    fn scene_len_matches_rendered_scene() {
        let cases = [
            (None, Rate::R24, 100, 4),
            (Some(AdjacentChannel::first()), Rate::R24, 100, 4),
            (Some(AdjacentChannel::alternate()), Rate::R6, 37, 8),
        ];
        for (adjacent, rate, psdu_len, osr) in cases {
            let cfg = LinkConfig {
                rate,
                psdu_len,
                osr,
                adjacent,
                front_end: FrontEnd::RfBaseband(RfConfig::default()),
                ..LinkConfig::default()
            };
            let sim = LinkSimulation::new(cfg.clone());
            let mut fe = sim.front_end_state(1);
            let rx = Receiver::with_profile(cfg.profile);
            sim.sim_packet(0, &mut Rng::new(1), &mut fe, &rx);
            assert_eq!(fe.scratch.scene.len(), cfg.scene_len(), "{cfg:?}");
        }
    }

    #[test]
    fn analog_steps_count_every_sub_step() {
        let analog_osr = 4;
        let cfg = LinkConfig {
            packets: 3,
            rx_level_dbm: -50.0,
            front_end: FrontEnd::RfCosim {
                filter_edge_hz: 10e6,
                analog_osr,
                noise_workaround: false,
            },
            ..LinkConfig::default()
        };
        let want = (analog_osr * cfg.packets * cfg.scene_len()) as u64;
        let sim = LinkSimulation::new(cfg.clone());
        assert_eq!(sim.run().analog_steps, want);
        // Shards each count their own receiver; the merge sums them.
        let mc = McRun::default();
        assert_eq!(
            sim.run_parallel(&ThreadPool::new(2), &mc).analog_steps,
            want
        );
        for front_end in [FrontEnd::Ideal, FrontEnd::RfBaseband(RfConfig::default())] {
            let r = quick(LinkConfig {
                packets: 1,
                front_end,
                ..cfg.clone()
            });
            assert_eq!(r.analog_steps, 0);
        }
    }

    #[test]
    fn multipath_flat_vs_dispersive() {
        let r = quick(LinkConfig {
            packets: 4,
            rate: Rate::R12,
            snr_db: Some(30.0),
            multipath_trms_s: Some(50e-9),
            seed: 9,
            ..LinkConfig::default()
        });
        // 50 ns delay spread fits comfortably in the 800 ns guard.
        assert!(r.ber() < 0.01, "ber {}", r.ber());
    }

    #[test]
    fn run_parallel_is_thread_invariant() {
        let sim = LinkSimulation::new(LinkConfig {
            packets: 4,
            psdu_len: 40,
            rate: Rate::R36,
            snr_db: Some(9.0),
            seed: 21,
            ..LinkConfig::default()
        });
        let mc = McRun::default();
        let base = sim.run_parallel(&ThreadPool::serial(), &mc);
        for threads in [2, 4] {
            let r = sim.run_parallel(&ThreadPool::new(threads), &mc);
            assert_eq!(r.meter, base.meter, "{threads} threads");
            assert_eq!(r.decoded_packets, base.decoded_packets);
            assert_eq!(r.evm_db, base.evm_db);
            assert_eq!(r.packets, base.packets);
        }
    }

    #[test]
    fn run_parallel_point_index_changes_stream() {
        let sim = LinkSimulation::new(LinkConfig {
            packets: 3,
            psdu_len: 40,
            snr_db: Some(8.5),
            seed: 5,
            ..LinkConfig::default()
        });
        let a = sim.run_parallel(&ThreadPool::serial(), &McRun::default());
        let b = sim.run_parallel(
            &ThreadPool::serial(),
            &McRun {
                point_index: 1,
                ..McRun::default()
            },
        );
        // Different points must not reuse the same noise realizations.
        assert!(
            a.meter != b.meter || a.evm_db != b.evm_db,
            "point 0 and point 1 produced identical results"
        );
    }

    #[test]
    #[should_panic]
    fn zero_packets_panics() {
        let _ = LinkSimulation::new(LinkConfig {
            packets: 0,
            ..LinkConfig::default()
        });
    }
}

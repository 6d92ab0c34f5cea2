//! The traced packet pipeline: the per-packet loop of
//! `LinkSimulation::run`, rebuilt from the layers' public calls with a
//! span around each call.
//!
//! The replica must draw every random number in the same order as
//! `LinkSimulation::run`, so it mirrors that loop's seed derivations,
//! scrambler-seed schedule and buffer padding. Nothing here is trusted:
//! every traced run is compared with an untraced `LinkSimulation::run`
//! of the same configuration, and any difference clears
//! [`Trace::faithful`], which flags the per-layer numbers.

use std::time::Instant;
use wlan_ams::CosimReceiver;
use wlan_channel::{Awgn, MultipathChannel, SceneRenderer};
use wlan_dsp::iir::DcBlocker;
use wlan_dsp::{Complex, Rng};
use wlan_meas::BerMeter;
use wlan_phy::ofdm::Ofdm;
use wlan_phy::preamble::long_training_symbol;
use wlan_phy::receiver::RxScratch;
use wlan_phy::sync::{correct_cfo_into_at, detect_packet_in, fine_cfo_at, locate_ltf_with};
use wlan_phy::transmitter::TxScratch;
use wlan_phy::{OfdmProfile, Receiver, RxError, Transmitter};
use wlan_rf::adc::Adc;
use wlan_rf::agc::Agc;
use wlan_rf::filters::{ChannelSelectFilter, DcBlockFilter};
use wlan_rf::mixer::Mixer;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};
use wlan_rf::Amplifier;
use wlan_sim::link::{FrontEnd, LinkConfig, LinkReport};
use wlan_units::{Dbm, Hz};

/// `Receiver`'s default detection threshold and plateau run (private
/// fields of the receiver; the identity check catches a change).
const DETECTION_THRESHOLD: f64 = 0.55;
const DETECTION_RUN: usize = 16;

/// How `LinkSimulation::run` derives the RF front end's and the noise
/// source's seeds from the run seed.
const FRONT_END_SEED_MIX: u64 = 0xABCD;
const NOISE_SEED_MIX: u64 = 0x5EED;

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Building the per-run objects (filters, netlist, receiver, scratch).
    Setup,
    /// `Transmitter::transmit_into`, wanted and adjacent channel.
    Tx,
    /// `MultipathChannel::regenerate_rayleigh_exponential` + `apply_into`.
    Fading,
    /// `SceneRenderer::add_into` for every emitter.
    Scene,
    /// `Awgn::add_noise_power_in_place` (channel or antenna floor).
    Awgn,
    /// `DoubleConversionReceiver::process_into`.
    Rf,
    /// `CosimReceiver::process_into`.
    Ams,
    /// `wlan_phy::sync` detection, CFO and LTF timing.
    RxSync,
    /// `Receiver::receive_with_timing_into`.
    RxDecode,
    /// RF block probe: LNA.
    Lna,
    /// RF block probe: first mixer.
    Mixer1,
    /// RF block probe: inter-stage highpass.
    Hpf,
    /// RF block probe: second (quadrature) mixer.
    Mixer2,
    /// RF block probe: channel-select filter.
    ChanFilt,
    /// RF block probe: AGC, ADC, decimation and DC correction.
    AgcAdc,
    /// The RF chain again with every noise source disabled.
    RfNoiseless,
}

const SPANS: usize = Span::RfNoiseless as usize + 1;

/// The spans whose sum is the traced pipeline (the rest are probes that
/// run beside it and are not part of the traced wall time).
pub const PIPELINE: [Span; 9] = [
    Span::Setup,
    Span::Tx,
    Span::Fading,
    Span::Scene,
    Span::Awgn,
    Span::Rf,
    Span::Ams,
    Span::RxSync,
    Span::RxDecode,
];

/// The RF block probes, in chain order.
pub const RF_BLOCKS: [Span; 6] = [
    Span::Lna,
    Span::Mixer1,
    Span::Hpf,
    Span::Mixer2,
    Span::ChanFilt,
    Span::AgcAdc,
];

/// Why a packet did not yield a useful decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// `RxError::NotDetected`.
    NotDetected,
    /// `RxError::LtfNotFound`.
    LtfNotFound,
    /// `RxError::Signal` (parity, rate or length field).
    Signal,
    /// `RxError::Truncated`.
    Truncated,
    /// `RxError::ScramblerSync`.
    ScramblerSync,
    /// Decoded, but the PSDU length differs from the one sent.
    LengthMismatch,
}

impl Loss {
    /// Every cause, in metric order.
    pub const ALL: [Loss; 6] = [
        Loss::NotDetected,
        Loss::LtfNotFound,
        Loss::Signal,
        Loss::Truncated,
        Loss::ScramblerSync,
        Loss::LengthMismatch,
    ];

    /// The cause of a receive error.
    pub fn of(err: &RxError) -> Loss {
        match err {
            RxError::NotDetected => Loss::NotDetected,
            RxError::LtfNotFound => Loss::LtfNotFound,
            RxError::Signal(_) => Loss::Signal,
            RxError::Truncated { .. } => Loss::Truncated,
            RxError::ScramblerSync => Loss::ScramblerSync,
        }
    }
}

/// The simulated outputs of one link run, comparable bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Packets simulated.
    pub packets: usize,
    /// Packets decoded with the right length.
    pub decoded: usize,
    /// Bit and packet error totals.
    pub meter: BerMeter,
    /// Bits of the mean EVM in dB over decoded packets.
    pub evm_bits: Option<u64>,
}

impl From<&LinkReport> for SimResult {
    fn from(r: &LinkReport) -> Self {
        SimResult {
            packets: r.packets,
            decoded: r.decoded_packets,
            meter: r.meter,
            evm_bits: r.evm_db.map(f64::to_bits),
        }
    }
}

/// Span times, span counts and layer counters of a traced run.
#[derive(Debug, Clone)]
pub struct Trace {
    ns: [u64; SPANS],
    calls: [u64; SPANS],
    /// Packets through the traced pipeline.
    pub packets: u64,
    /// Packets decoded with the right length.
    pub decoded: u64,
    /// Lost packets by cause, in [`Loss::ALL`] order.
    pub losses: [u64; 6],
    /// Oversampled scene samples rendered.
    pub scene_samples: u64,
    /// Scene samples fed to the RF chain.
    pub rf_samples: u64,
    /// Analog solver sub-steps taken.
    pub ams_steps: u64,
    /// Traced pipeline wall time (probes excluded).
    pub traced_ns: u64,
    /// Wall time of the untraced `LinkSimulation::run` calls on the same
    /// inputs.
    pub untraced_ns: u64,
    /// Whether every traced run reproduced `LinkSimulation::run` and the
    /// RF block probes reproduced the RF chain.
    pub faithful: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            ns: [0; SPANS],
            calls: [0; SPANS],
            packets: 0,
            decoded: 0,
            losses: [0; 6],
            scene_samples: 0,
            rf_samples: 0,
            ams_steps: 0,
            traced_ns: 0,
            untraced_ns: 0,
            faithful: true,
        }
    }
}

impl Trace {
    /// Closes the span `s` opened at `start`.
    pub fn add(&mut self, s: Span, start: Instant) {
        self.ns[s as usize] += start.elapsed().as_nanos() as u64;
        self.calls[s as usize] += 1;
    }

    /// Total time in `s`.
    pub fn ns(&self, s: Span) -> u64 {
        self.ns[s as usize]
    }

    /// Times `s` was entered.
    pub fn calls(&self, s: Span) -> u64 {
        self.calls[s as usize]
    }

    fn probe_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() - PIPELINE.iter().map(|&s| self.ns(s)).sum::<u64>()
    }

    fn count_loss(&mut self, loss: Loss) {
        let i = Loss::ALL.iter().position(|&l| l == loss).expect("listed");
        self.losses[i] += 1;
    }

    /// Runs `cfg` through the traced pipeline and adds its spans; the
    /// probes (RF blocks, noiseless chain) run beside it but are kept
    /// out of [`Trace::traced_ns`].
    pub fn run_traced(&mut self, cfg: &LinkConfig) -> SimResult {
        let started = Instant::now();
        let probes_before = self.probe_ns();
        let t = Instant::now();
        let mut link = TracedLink::new(cfg.clone());
        self.add(Span::Setup, t);
        let t = Instant::now();
        link.attach_probes();
        let probe_setup_ns = t.elapsed().as_nanos() as u64;
        let result = link.run(self);
        let probes = self.probe_ns() - probes_before + probe_setup_ns;
        self.traced_ns += (started.elapsed().as_nanos() as u64).saturating_sub(probes);
        result
    }
}

/// Detection, CFO and LTF-timing buffers (the sync part of `RxScratch`,
/// which keeps them private).
#[derive(Debug, Default)]
struct SyncScratch {
    p: Vec<Complex>,
    r: Vec<f64>,
    xcorr: Vec<Complex>,
    coarse: Vec<Complex>,
}

/// The RF chain rebuilt from its public block types, plus a noiseless
/// copy of the whole chain: they time each block and the noise share.
struct RfProbes {
    lna: Amplifier,
    mixer1: Mixer,
    hpf: DcBlockFilter,
    mixer2: Mixer,
    chanfilt: ChannelSelectFilter,
    agc: Agc,
    adc: Adc,
    dc: DcBlocker,
    osr: usize,
    phase: usize,
    mid: Vec<Complex>,
    out: Vec<Complex>,
    noiseless: DoubleConversionReceiver,
    noiseless_scratch: RfScratch,
    noiseless_out: Vec<Complex>,
}

impl RfProbes {
    /// Mirrors `DoubleConversionReceiver::new(cfg, seed)`: the same
    /// blocks with the same forked noise streams.
    fn new(cfg: RfConfig, seed: u64) -> Self {
        let fs = cfg.sample_rate_hz.0;
        let mut rng = Rng::new(seed);
        let mut lna = Amplifier::new(
            cfg.lna_gain_db,
            cfg.lna_nf_db,
            cfg.lna_nonlinearity,
            fs,
            rng.fork(),
        );
        let mut mixer1 = Mixer::new(cfg.mixer1, fs, rng.fork());
        let mut mixer2 = Mixer::new(cfg.mixer2, fs, rng.fork());
        lna.set_noise_enabled(cfg.noise_enabled);
        mixer1.set_noise_enabled(cfg.noise_enabled);
        mixer2.set_noise_enabled(cfg.noise_enabled);
        let mut noiseless = DoubleConversionReceiver::new(cfg, seed);
        noiseless.set_noise_enabled(false);
        RfProbes {
            lna,
            mixer1,
            hpf: DcBlockFilter::new(cfg.hpf_cutoff_hz.0, fs),
            mixer2,
            chanfilt: ChannelSelectFilter::with_order(
                cfg.channel_filter_order,
                cfg.channel_filter_ripple_db.0,
                cfg.channel_filter_edge_hz.0,
                fs,
            ),
            agc: Agc::new(cfg.agc, cfg.agc_target_power),
            adc: Adc::new(cfg.adc_bits, cfg.adc_full_scale),
            dc: DcBlocker::with_cutoff(40e3, fs / cfg.osr as f64),
            osr: cfg.osr,
            phase: 0,
            mid: Vec::new(),
            out: Vec::new(),
            noiseless,
            noiseless_scratch: RfScratch::default(),
            noiseless_out: Vec::new(),
        }
    }

    /// Times each block on `scene` and returns whether the block chain
    /// reproduced the RF chain's output `rf_out`.
    fn run(&mut self, scene: &[Complex], rf_out: &[Complex], trace: &mut Trace) -> bool {
        self.mid.clear();
        self.mid.extend_from_slice(scene);
        let t = Instant::now();
        self.lna.process_in_place(&mut self.mid);
        trace.add(Span::Lna, t);
        let t = Instant::now();
        self.mixer1.process_in_place(&mut self.mid);
        trace.add(Span::Mixer1, t);
        let t = Instant::now();
        self.hpf.process_in_place(&mut self.mid);
        trace.add(Span::Hpf, t);
        let t = Instant::now();
        self.mixer2.process_in_place(&mut self.mid);
        trace.add(Span::Mixer2, t);
        let t = Instant::now();
        self.chanfilt.process_in_place(&mut self.mid);
        trace.add(Span::ChanFilt, t);
        let t = Instant::now();
        self.agc.process_in_place(&mut self.mid);
        self.out.clear();
        for &s in &self.mid {
            if self.phase == 0 {
                self.out.push(self.dc.push(self.adc.convert(s)));
            }
            self.phase = (self.phase + 1) % self.osr;
        }
        trace.add(Span::AgcAdc, t);
        let t = Instant::now();
        self.noiseless
            .process_into(scene, &mut self.noiseless_scratch, &mut self.noiseless_out);
        trace.add(Span::RfNoiseless, t);
        self.out == rf_out
    }
}

#[allow(clippy::large_enum_variant)] // one per run, never moved per packet
enum Front {
    Ideal,
    Rf {
        rx: DoubleConversionReceiver,
        scratch: RfScratch,
        probes: Option<Box<RfProbes>>,
    },
    Cosim(CosimReceiver),
}

/// One link run's state: the objects `LinkSimulation::run` builds, and
/// the same per-packet buffers.
pub struct TracedLink {
    cfg: LinkConfig,
    rng: Rng,
    noise: Awgn,
    front: Front,
    tx: Transmitter,
    adj_tx: Transmitter,
    txs: TxScratch,
    chan_model: MultipathChannel,
    renderer: SceneRenderer,
    rx: Receiver,
    rxs: RxScratch,
    ltf: Vec<Complex>,
    sync: SyncScratch,
    psdu: Vec<u8>,
    adj_psdu: Vec<u8>,
    burst: Vec<Complex>,
    faded: Vec<Complex>,
    chan: Vec<Complex>,
    padded: Vec<Complex>,
    adj_burst: Vec<Complex>,
    scene: Vec<Complex>,
    rf_out: Vec<Complex>,
}

impl TracedLink {
    /// Builds the objects `LinkSimulation::run` builds before its first
    /// packet.
    pub fn new(cfg: LinkConfig) -> Self {
        let seed = cfg.seed;
        let profile: &'static OfdmProfile = cfg.profile;
        let scene_rate = profile.sample_rate * cfg.osr as f64;
        let front = match &cfg.front_end {
            FrontEnd::Ideal => Front::Ideal,
            FrontEnd::RfBaseband(rf) => {
                let mut rf = *rf;
                rf.sample_rate_hz = Hz(scene_rate);
                rf.osr = cfg.osr;
                Front::Rf {
                    rx: DoubleConversionReceiver::new(rf, seed ^ FRONT_END_SEED_MIX),
                    scratch: RfScratch::default(),
                    probes: None,
                }
            }
            FrontEnd::RfCosim {
                filter_edge_hz,
                analog_osr,
                ..
            } => Front::Cosim(
                CosimReceiver::with_filter_edge(*filter_edge_hz, scene_rate, *analog_osr, cfg.osr)
                    .expect("built-in netlist elaborates"),
            ),
        };
        let mut rxs = RxScratch::default();
        rxs.reserve_worst_case();
        TracedLink {
            rng: Rng::new(seed),
            noise: Awgn::new(seed ^ NOISE_SEED_MIX),
            front,
            tx: Transmitter::with_profile(cfg.rate, profile),
            adj_tx: Transmitter::with_profile(cfg.rate, profile),
            txs: TxScratch::default(),
            chan_model: MultipathChannel::identity(),
            renderer: SceneRenderer::new(profile.sample_rate, cfg.osr),
            rx: Receiver::with_profile(profile),
            rxs,
            ltf: long_training_symbol(&Ofdm::with_profile(profile))[..profile.fft_size].to_vec(),
            sync: SyncScratch::default(),
            psdu: Vec::new(),
            adj_psdu: Vec::new(),
            burst: Vec::new(),
            faded: Vec::new(),
            chan: Vec::new(),
            padded: Vec::new(),
            adj_burst: Vec::new(),
            scene: Vec::new(),
            rf_out: Vec::new(),
            cfg,
        }
    }

    /// Adds the RF block probes and the noiseless chain beside an RF
    /// front end (other front ends have none).
    fn attach_probes(&mut self) {
        if let Front::Rf { rx, probes, .. } = &mut self.front {
            *probes = Some(Box::new(RfProbes::new(
                *rx.config(),
                self.cfg.seed ^ FRONT_END_SEED_MIX,
            )));
        }
    }

    /// Simulates every packet, accounting exactly as
    /// `LinkSimulation::run` does.
    pub fn run(&mut self, trace: &mut Trace) -> SimResult {
        let mut meter = BerMeter::new();
        let mut evm_acc = 0.0f64;
        let mut decoded = 0usize;
        for pkt in 0..self.cfg.packets {
            match self.packet(pkt, trace) {
                Ok(evm_db) => {
                    meter.update_bytes(&self.psdu, &self.rxs.psdu);
                    evm_acc += evm_db;
                    decoded += 1;
                }
                Err(loss) => {
                    trace.count_loss(loss);
                    meter.update_lost_packet(8 * self.cfg.psdu_len);
                }
            }
        }
        trace.packets += self.cfg.packets as u64;
        trace.decoded += decoded as u64;
        SimResult {
            packets: self.cfg.packets,
            decoded,
            meter,
            evm_bits: (decoded > 0).then(|| (evm_acc / decoded as f64).to_bits()),
        }
    }

    /// One packet: transmit, channel, front end, receive. Returns the
    /// packet's EVM (dB) or why it was lost.
    fn packet(&mut self, pkt: usize, trace: &mut Trace) -> Result<f64, Loss> {
        let TracedLink {
            cfg,
            rng,
            noise,
            front,
            tx,
            adj_tx,
            txs,
            chan_model,
            renderer,
            rx,
            rxs,
            ltf,
            sync,
            psdu,
            adj_psdu,
            burst,
            faded,
            chan,
            padded,
            adj_burst,
            scene,
            rf_out,
        } = self;
        let profile = cfg.profile;

        let t = Instant::now();
        psdu.clear();
        psdu.resize(cfg.psdu_len, 0);
        rng.bytes(psdu);
        tx.set_scrambler_seed(((pkt as u8).wrapping_mul(37) % 127) + 1);
        tx.transmit_into(psdu, txs, burst);
        trace.add(Span::Tx, t);

        let t = Instant::now();
        if let Some(trms) = cfg.multipath_trms_s {
            chan_model.regenerate_rayleigh_exponential(trms, profile.sample_rate, rng);
            chan_model.apply_into(burst, faded);
            std::mem::swap(burst, faded);
        }
        trace.add(Span::Fading, t);

        let dsp_input: &[Complex] = match front {
            Front::Ideal => {
                let t = Instant::now();
                chan.clear();
                chan.reserve(burst.len() + 400);
                chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                chan.extend_from_slice(burst);
                chan.extend(std::iter::repeat_n(Complex::ZERO, 200));
                if let Some(snr) = cfg.snr_db {
                    noise.add_noise_power_in_place(chan, wlan_dsp::math::db_to_lin(-snr));
                }
                trace.add(Span::Awgn, t);
                chan
            }
            Front::Rf { .. } | Front::Cosim(_) => {
                let t = Instant::now();
                padded.clear();
                padded.reserve(burst.len() + 160);
                padded.extend_from_slice(burst);
                padded.extend(std::iter::repeat_n(Complex::ZERO, 160));
                scene.clear();
                renderer.add_into(
                    padded,
                    Hz(0.0),
                    Dbm(cfg.rx_level_dbm),
                    profile.fft_size * cfg.osr,
                    scene,
                );
                if let Some(adj) = cfg.adjacent {
                    adj_psdu.clear();
                    adj_psdu.resize(cfg.psdu_len, 0);
                    rng.bytes(adj_psdu);
                    trace.add(Span::Scene, t);
                    let t = Instant::now();
                    adj_tx.set_scrambler_seed(((pkt as u8).wrapping_mul(53) % 127) + 1);
                    adj_tx.transmit_into(adj_psdu, txs, adj_burst);
                    trace.add(Span::Tx, t);
                    let t = Instant::now();
                    renderer.add_into(
                        adj_burst,
                        Hz(adj.offset_hz),
                        Dbm(cfg.rx_level_dbm + adj.rel_db),
                        0,
                        scene,
                    );
                    trace.add(Span::Scene, t);
                } else {
                    trace.add(Span::Scene, t);
                }
                trace.scene_samples += scene.len() as u64;

                let t = Instant::now();
                let floor =
                    wlan_rf::noise::source_noise_power(profile.sample_rate * cfg.osr as f64);
                match &cfg.front_end {
                    FrontEnd::RfBaseband(_) => noise.add_noise_power_in_place(scene, floor),
                    FrontEnd::RfCosim {
                        noise_workaround: true,
                        ..
                    } => noise.add_noise_power_in_place(scene, floor * 4.0),
                    _ => {}
                }
                trace.add(Span::Awgn, t);

                match front {
                    Front::Rf {
                        rx: fe,
                        scratch,
                        probes,
                    } => {
                        let t = Instant::now();
                        fe.process_into(scene, scratch, rf_out);
                        trace.add(Span::Rf, t);
                        trace.rf_samples += scene.len() as u64;
                        if let Some(p) = probes {
                            let same = p.run(scene, rf_out, trace);
                            trace.faithful &= same;
                        }
                    }
                    Front::Cosim(fe) => {
                        let steps = fe.steps_taken();
                        let t = Instant::now();
                        fe.process_into(scene, rf_out);
                        trace.add(Span::Ams, t);
                        trace.ams_steps += fe.steps_taken() - steps;
                    }
                    Front::Ideal => unreachable!("matched above"),
                }
                rf_out
            }
        };

        let t = Instant::now();
        let timing = sync_packet(dsp_input, profile, ltf, sync);
        trace.add(Span::RxSync, t);
        let (ltf1, cfo_hz) = timing?;
        let t = Instant::now();
        let decoded = rx.receive_with_timing_into(dsp_input, ltf1, cfo_hz, rxs);
        trace.add(Span::RxDecode, t);
        match decoded {
            Ok(sum) if rxs.psdu.len() == psdu.len() => Ok(sum.evm_db()),
            Ok(_) => Err(Loss::LengthMismatch),
            Err(e) => Err(Loss::of(&e)),
        }
    }
}

/// The synchronization half of `Receiver::receive_into`: packet
/// detection, coarse CFO, LTF timing and fine CFO. Returns the LTF start
/// and the total CFO, which `receive_with_timing_into` then decodes with.
fn sync_packet(
    samples: &[Complex],
    profile: &OfdmProfile,
    ltf: &[Complex],
    s: &mut SyncScratch,
) -> Result<(usize, f64), Loss> {
    let n = profile.fft_size;
    let det = detect_packet_in(
        samples,
        DETECTION_THRESHOLD,
        DETECTION_RUN,
        profile.stf_period(),
        profile.sample_rate,
        &mut s.p,
        &mut s.r,
    )
    .ok_or(Loss::NotDetected)?;
    correct_cfo_into_at(
        samples,
        det.coarse_cfo_hz,
        profile.sample_rate,
        &mut s.coarse,
    );
    let w_lo = (det.start + (150 * n) / 64).min(s.coarse.len());
    let w_hi = (det.start + (280 * n) / 64).min(s.coarse.len());
    if w_lo >= w_hi {
        return Err(Loss::LtfNotFound);
    }
    let ltf1 =
        locate_ltf_with(&s.coarse, ltf, w_lo..w_hi, &mut s.xcorr).ok_or(Loss::LtfNotFound)?;
    let fine = fine_cfo_at(&s.coarse, ltf1, n, profile.sample_rate).ok_or(Loss::LtfNotFound)?;
    Ok((ltf1, det.coarse_cfo_hz + fine))
}

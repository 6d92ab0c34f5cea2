//! The SIGNAL symbol: rate and length header
//! (IEEE 802.11a-1999 §17.3.4).
//!
//! 24 bits — RATE (4), reserved (1), LENGTH (12, LSB first), even parity
//! (1), tail (6) — encoded at rate 1/2, interleaved and BPSK modulated
//! into one OFDM symbol. The SIGNAL symbol is *not* scrambled.

use crate::convolutional::encode;
use crate::interleaver::Interleaver;
use crate::modulation::{demap_soft_into, map_bits};
use crate::ofdm::Ofdm;
use crate::params::{Modulation, Rate, MAX_PSDU_LEN};
use crate::viterbi::{Llr, ViterbiDecoder};
use wlan_dsp::Complex;

/// Decoded SIGNAL field contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalField {
    /// Data rate of the following DATA symbols.
    pub rate: Rate,
    /// PSDU length in bytes (1..=4095).
    pub length: usize,
}

/// Errors from SIGNAL decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalError {
    /// The parity bit check failed.
    Parity,
    /// The RATE field is not one of the eight valid patterns.
    InvalidRate,
    /// The LENGTH field is zero or out of range.
    InvalidLength(usize),
}

impl std::fmt::Display for SignalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignalError::Parity => write!(f, "signal field parity check failed"),
            SignalError::InvalidRate => write!(f, "signal field rate pattern invalid"),
            SignalError::InvalidLength(l) => write!(f, "signal field length {l} out of range"),
        }
    }
}

impl std::error::Error for SignalError {}

/// Builds the 24 SIGNAL bits.
///
/// # Panics
///
/// Panics if `length` is 0 or exceeds [`MAX_PSDU_LEN`].
pub fn signal_bits(rate: Rate, length: usize) -> [u8; 24] {
    assert!(
        (1..=MAX_PSDU_LEN).contains(&length),
        "PSDU length {length} out of 1..={MAX_PSDU_LEN}"
    );
    let mut bits = [0u8; 24];
    bits[..4].copy_from_slice(&rate.rate_field());
    // bit 4: reserved = 0
    for i in 0..12 {
        bits[5 + i] = ((length >> i) & 1) as u8;
    }
    let parity: u8 = bits[..17].iter().fold(0, |acc, &b| acc ^ b);
    bits[17] = parity;
    // bits 18..24: tail zeros
    bits
}

/// Parses 24 decoded SIGNAL bits.
///
/// # Errors
///
/// Returns [`SignalError`] if the parity, rate pattern or length is
/// invalid.
pub fn parse_signal_bits(bits: &[u8; 24]) -> Result<SignalField, SignalError> {
    let parity: u8 = bits[..18].iter().fold(0, |acc, &b| acc ^ b);
    if parity != 0 {
        return Err(SignalError::Parity);
    }
    let rate = Rate::from_rate_field([bits[0], bits[1], bits[2], bits[3]])
        .ok_or(SignalError::InvalidRate)?;
    let mut length = 0usize;
    for i in 0..12 {
        length |= (bits[5 + i] as usize) << i;
    }
    if length == 0 || length > MAX_PSDU_LEN {
        return Err(SignalError::InvalidLength(length));
    }
    Ok(SignalField { rate, length })
}

/// Modulates the SIGNAL field into one 80-sample OFDM symbol
/// (symbol index 0 for the pilot polarity).
pub fn modulate_signal(ofdm: &Ofdm, rate: Rate, length: usize) -> Vec<Complex> {
    modulate_signal_bits(ofdm, &signal_bits(rate, length))
}

/// [`modulate_signal`] from 24 given SIGNAL bits, valid or not.
pub(crate) fn modulate_signal_bits(ofdm: &Ofdm, bits: &[u8; 24]) -> Vec<Complex> {
    let coded = encode(bits);
    let il = Interleaver::with_params(48, 1);
    let interleaved = il.interleave(&coded);
    let data = map_bits(&interleaved, Modulation::Bpsk);
    ofdm.modulate(&data, 0)
}

/// Demodulates and decodes the SIGNAL field from 48 equalized data
/// subcarrier values.
///
/// # Errors
///
/// Returns [`SignalError`] when the decoded bits fail validation.
pub fn decode_signal(
    equalized: &[Complex; 48],
    csi: Option<&[f64]>,
) -> Result<SignalField, SignalError> {
    SignalDecoder::new().decode(equalized, csi)
}

/// A reusable SIGNAL decoder: the BPSK interleaver, Viterbi decoder and
/// working buffers are built once and reused across packets.
#[derive(Debug, Clone)]
pub struct SignalDecoder {
    il: Interleaver,
    vit: ViterbiDecoder,
    llrs: Vec<Llr>,
    deint: Vec<Llr>,
    bits: Vec<u8>,
}

impl Default for SignalDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalDecoder {
    /// Builds the decoder (48-bit BPSK interleaver plus Viterbi state).
    pub fn new() -> Self {
        SignalDecoder {
            il: Interleaver::with_params(48, 1),
            vit: ViterbiDecoder::new(),
            llrs: Vec::new(),
            deint: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Allocation-free [`decode_signal`].
    ///
    /// # Errors
    ///
    /// Returns [`SignalError`] when the decoded bits fail validation.
    pub fn decode(
        &mut self,
        equalized: &[Complex; 48],
        csi: Option<&[f64]>,
    ) -> Result<SignalField, SignalError> {
        demap_soft_into(equalized, Modulation::Bpsk, csi, &mut self.llrs);
        self.deint.clear();
        self.il.deinterleave_append(&self.llrs, &mut self.deint);
        self.vit.decode_soft_into(&self.deint, &mut self.bits);
        let mut bits = [0u8; 24];
        bits.copy_from_slice(&self.bits[..24]);
        parse_signal_bits(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ALL_RATES;

    #[test]
    fn bits_roundtrip_all_rates() {
        for r in ALL_RATES {
            for len in [1usize, 100, 2047, 4095] {
                let bits = signal_bits(r, len);
                let parsed = parse_signal_bits(&bits).expect("valid bits parse");
                assert_eq!(parsed.rate, r);
                assert_eq!(parsed.length, len);
            }
        }
    }

    #[test]
    fn parity_detects_single_flip() {
        let mut bits = signal_bits(Rate::R24, 100);
        bits[7] ^= 1;
        assert_eq!(parse_signal_bits(&bits), Err(SignalError::Parity));
    }

    #[test]
    fn invalid_rate_detected() {
        let mut bits = signal_bits(Rate::R6, 10);
        // 1101 → 1100 (invalid), fix parity to isolate the rate check.
        bits[3] = 0;
        bits[17] ^= 1;
        assert_eq!(parse_signal_bits(&bits), Err(SignalError::InvalidRate));
    }

    #[test]
    fn zero_length_detected() {
        let mut bits = signal_bits(Rate::R6, 1);
        bits[5] = 0; // length 1 → 0
        bits[17] ^= 1;
        assert_eq!(parse_signal_bits(&bits), Err(SignalError::InvalidLength(0)));
    }

    #[test]
    fn tail_bits_are_zero() {
        let bits = signal_bits(Rate::R54, 4095);
        assert!(bits[18..].iter().all(|&b| b == 0));
    }

    #[test]
    fn modulate_decode_roundtrip() {
        let ofdm = Ofdm::new();
        for r in ALL_RATES {
            let sym = modulate_signal(&ofdm, r, 1234);
            assert_eq!(sym.len(), 80);
            let freq = ofdm.demodulate(&sym);
            let data = ofdm.extract_data(&freq);
            let sig = decode_signal(&data, None).expect("clean symbol decodes");
            assert_eq!(sig.rate, r);
            assert_eq!(sig.length, 1234);
        }
    }

    #[test]
    #[should_panic]
    fn oversize_length_panics() {
        let _ = signal_bits(Rate::R6, 5000);
    }
}

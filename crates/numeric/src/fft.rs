//! Radix-2 fast Fourier transform and spectral helpers.
//!
//! Used for spectral inspection of the DCO's multi-tone FSK stimulus (the
//! paper's two-tone vs ten-step comparison) and for validating the Goertzel
//! single-bin extraction.

use crate::complex::Complex64;

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two (or is zero).
pub fn fft_in_place(data: &mut [Complex64]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -std::f64::consts::TAU / len as f64;
        let wlen = Complex64::from_polar(1.0, ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex64::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a complex buffer (copying).
pub fn fft(data: &[Complex64]) -> Vec<Complex64> {
    let mut out = data.to_vec();
    fft_in_place(&mut out);
    out
}

/// Inverse FFT with `1/N` normalisation.
pub fn ifft(data: &[Complex64]) -> Vec<Complex64> {
    let n = data.len() as f64;
    let mut out: Vec<Complex64> = data.iter().map(|z| z.conj()).collect();
    fft_in_place(&mut out);
    out.iter_mut().for_each(|z| *z = z.conj() / n);
    out
}

/// FFT of a real signal; returns the full complex spectrum.
pub fn fft_real(signal: &[f64]) -> Vec<Complex64> {
    let data: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
    fft(&data)
}

/// Single-sided amplitude spectrum of a real signal of power-of-two length:
/// `(frequency_bin_hz, amplitude)` pairs for bins `0..=N/2`, scaled so that
/// a pure sine of amplitude `A` shows `A` at its bin.
///
/// # Panics
///
/// Panics if the length is not a power of two or `sample_rate_hz` is not
/// positive.
pub fn amplitude_spectrum(signal: &[f64], sample_rate_hz: f64) -> Vec<(f64, f64)> {
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    let n = signal.len();
    let spec = fft_real(signal);
    let df = sample_rate_hz / n as f64;
    (0..=n / 2)
        .map(|k| {
            let scale = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
            (k as f64 * df, scale * spec[k].abs() / n as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        let spec = fft(&data);
        for z in spec {
            assert!((z - Complex64::ONE).abs() < 1e-14);
        }
    }

    #[test]
    fn fft_ifft_round_trip() {
        let data: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let back = ifft(&fft(&data));
        for (a, b) in data.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_identity() {
        let data: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let spec = fft(&data);
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn sine_lands_in_correct_bin() {
        let n = 256;
        let fs = 1000.0;
        let f0 = fs * 10.0 / n as f64; // exactly bin 10
        let amp = 2.5;
        let signal: Vec<f64> = (0..n)
            .map(|i| amp * (TAU * f0 * i as f64 / fs).sin())
            .collect();
        let spec = amplitude_spectrum(&signal, fs);
        let (peak_bin, peak) = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .unwrap();
        assert_eq!(peak_bin, 10);
        assert!((peak.1 - amp).abs() < 1e-10);
        assert!((peak.0 - f0).abs() < 1e-9);
    }

    #[test]
    fn two_tone_spectrum_has_two_lines() {
        let n = 512;
        let fs = 512.0;
        let signal: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (TAU * 16.0 * t).sin() + 0.5 * (TAU * 48.0 * t).sin()
            })
            .collect();
        let spec = amplitude_spectrum(&signal, fs);
        assert!((spec[16].1 - 1.0).abs() < 1e-9);
        assert!((spec[48].1 - 0.5).abs() < 1e-9);
        // Everything else near zero.
        let spur: f64 = spec
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != 16 && *k != 48)
            .map(|(_, (_, a))| *a)
            .fold(0.0, f64::max);
        assert!(spur < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut d = vec![Complex64::ZERO; 6];
        fft_in_place(&mut d);
    }
}

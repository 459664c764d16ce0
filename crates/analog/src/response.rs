//! Frequency-response extraction: sweeps, peak search and cut-off frequencies.

use crate::mna::Mna;
use crate::netlist::{Circuit, NodeId};
use crate::AnalogError;

/// Configuration of the logarithmic frequency sweep used when extracting
/// response parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepConfig {
    /// Lowest frequency of the sweep in hertz.
    pub start_hz: f64,
    /// Highest frequency of the sweep in hertz.
    pub stop_hz: f64,
    /// Number of sweep points per decade.
    pub points_per_decade: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            start_hz: 1.0,
            stop_hz: 10.0e6,
            points_per_decade: 30,
        }
    }
}

impl SweepConfig {
    /// Generates the logarithmically spaced frequency grid.
    pub fn frequencies(&self) -> Vec<f64> {
        let decades = (self.stop_hz / self.start_hz).log10();
        let n = ((decades * self.points_per_decade as f64).ceil() as usize).max(2);
        (0..=n)
            .map(|i| self.start_hz * 10f64.powf(decades * i as f64 / n as f64))
            .collect()
    }
}

/// A sampled magnitude response |H(f)| of one output node.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequencyResponse {
    points: Vec<(f64, f64)>,
}

impl FrequencyResponse {
    /// Samples the response of `circuit` from source `source` to node
    /// `output` over the given sweep.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (singular MNA matrix, unknown source).
    pub fn sweep(
        circuit: &Circuit,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
    ) -> Result<Self, AnalogError> {
        let mna = Mna::new(circuit);
        Self::sweep_with_mna(&mna, source, output, config)
    }

    /// Samples the response using an existing (possibly patched) MNA engine,
    /// reusing its stamp pattern, per-frequency systems and factorizations.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (singular MNA matrix, unknown source).
    pub fn sweep_with_mna(
        mna: &Mna<'_>,
        source: &str,
        output: NodeId,
        config: &SweepConfig,
    ) -> Result<Self, AnalogError> {
        let mut points = Vec::new();
        for f in config.frequencies() {
            let gain = mna.gain(source, output, f)?;
            points.push((f, gain));
        }
        Ok(FrequencyResponse { points })
    }

    /// The `(frequency, gain)` samples in ascending frequency order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Maximum gain over the sweep and the frequency at which it occurs.
    pub fn peak(&self) -> (f64, f64) {
        self.points.iter().copied().fold(
            (0.0, 0.0),
            |(bf, bg), (f, g)| {
                if g > bg {
                    (f, g)
                } else {
                    (bf, bg)
                }
            },
        )
    }

    /// Gain at the lowest swept frequency (a proxy for the DC gain of
    /// low-pass responses).
    pub fn low_frequency_gain(&self) -> f64 {
        self.points.first().map(|&(_, g)| g).unwrap_or(0.0)
    }

    /// Gain at the highest swept frequency.
    pub fn high_frequency_gain(&self) -> f64 {
        self.points.last().map(|&(_, g)| g).unwrap_or(0.0)
    }
}

/// The MNA engine an analyzer works on: its own, or one shared with other
/// analyzers / a deviation analysis (so cached systems and value patches are
/// shared too).
enum MnaHandle<'a> {
    Owned(Box<Mna<'a>>),
    Shared(&'a Mna<'a>),
}

/// High-accuracy response-parameter extraction working directly on the MNA
/// solver (sweep for bracketing, bisection for refinement).
pub struct ResponseAnalyzer<'a> {
    mna: MnaHandle<'a>,
    source: String,
    output: NodeId,
    config: SweepConfig,
}

impl<'a> ResponseAnalyzer<'a> {
    /// Creates an analyzer for the transfer function `source → output` with
    /// its own MNA engine.
    pub fn new(circuit: &'a Circuit, source: &str, output: NodeId) -> Self {
        ResponseAnalyzer {
            mna: MnaHandle::Owned(Box::new(Mna::new(circuit))),
            source: source.to_owned(),
            output,
            config: SweepConfig::default(),
        }
    }

    /// Creates an analyzer on a shared MNA engine.  All of the engine's
    /// cached per-frequency systems — and any deviation applied through
    /// [`Mna::probe`] or [`Mna::set_value`] — are visible to the analyzer,
    /// which is how the deviation analysis measures parameters of a
    /// perturbed circuit without rebuilding anything.
    pub fn from_mna(mna: &'a Mna<'a>, source: &str, output: NodeId) -> Self {
        ResponseAnalyzer {
            mna: MnaHandle::Shared(mna),
            source: source.to_owned(),
            output,
            config: SweepConfig::default(),
        }
    }

    /// Replaces the sweep configuration.
    pub fn with_sweep(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// The underlying MNA engine.
    pub fn mna(&self) -> &Mna<'a> {
        match &self.mna {
            MnaHandle::Owned(mna) => mna,
            MnaHandle::Shared(mna) => mna,
        }
    }

    /// Gain magnitude at a single frequency.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn gain_at(&self, freq_hz: f64) -> Result<f64, AnalogError> {
        self.mna().gain(&self.source, self.output, freq_hz)
    }

    /// DC gain (`|H(0)|`).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn dc_gain(&self) -> Result<f64, AnalogError> {
        self.mna().gain(&self.source, self.output, 0.0)
    }

    /// Maximum gain over the sweep range, refined by golden-section search,
    /// returned as `(frequency, gain)`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn peak(&self) -> Result<(f64, f64), AnalogError> {
        let peak = self.search_peak()?;
        Ok((peak.f_peak, peak.g_peak))
    }

    /// Sweeps the grid, then refines around the best sample by golden-section
    /// search.
    fn search_peak(&self) -> Result<PeakSearch, AnalogError> {
        let freqs = self.config.frequencies();
        let gains = freqs
            .iter()
            .map(|&f| self.gain_at(f))
            .collect::<Result<Vec<f64>, AnalogError>>()?;
        let mut best = 0usize;
        for (i, &g) in gains.iter().enumerate() {
            if g > gains[best] {
                best = i;
            }
        }
        let lo = freqs[best.saturating_sub(1)];
        let hi = freqs[(best + 1).min(freqs.len() - 1)];
        let (f_peak, g_peak) = if lo >= hi {
            (freqs[best], gains[best])
        } else {
            self.golden_section(lo, hi, 1.0)?
        };
        Ok(PeakSearch {
            freqs,
            gains,
            best,
            f_peak,
            g_peak,
        })
    }

    /// Golden-section search of `[lo, hi]` in log-frequency for the maximum
    /// of `sign · gain` (`sign = -1` finds a minimum), one gain evaluation per
    /// step, until the bracket is [`FREQUENCY_TOLERANCE`] wide.  Returns the
    /// bracket's midpoint and the gain there.
    fn golden_section(&self, lo: f64, hi: f64, sign: f64) -> Result<(f64, f64), AnalogError> {
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let objective = |x: f64| self.gain_at(x.exp()).map(|g| sign * g);
        let (mut a, mut b) = (lo.ln(), hi.ln());
        let mut c = b - phi * (b - a);
        let mut d = a + phi * (b - a);
        let mut gc = objective(c)?;
        let mut gd = objective(d)?;
        while b - a > FREQUENCY_TOLERANCE {
            if gc > gd {
                (b, d, gd) = (d, c, gc);
                c = b - phi * (b - a);
                gc = objective(c)?;
            } else {
                (a, c, gc) = (c, d, gd);
                d = a + phi * (b - a);
                gd = objective(d)?;
            }
        }
        let f = ((a + b) / 2.0).exp();
        Ok((f, self.gain_at(f)?))
    }

    /// Center frequency (frequency of maximum gain).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn center_frequency(&self) -> Result<f64, AnalogError> {
        Ok(self.peak()?.0)
    }

    /// Low cut-off: the highest frequency *below* the gain peak at which the
    /// gain falls to `peak/√2`.  Returns an error if the response never drops
    /// below the threshold on the low side (e.g. a low-pass filter).
    ///
    /// # Errors
    ///
    /// [`AnalogError::ParameterNotFound`] if no low-side crossing exists in
    /// the sweep range; otherwise solver errors.
    pub fn low_cutoff(&self) -> Result<f64, AnalogError> {
        self.cutoff(false)
    }

    /// High cut-off: the lowest frequency *above* the gain peak at which the
    /// gain falls to `peak/√2`.
    ///
    /// # Errors
    ///
    /// [`AnalogError::ParameterNotFound`] if no high-side crossing exists in
    /// the sweep range; otherwise solver errors.
    pub fn high_cutoff(&self) -> Result<f64, AnalogError> {
        self.cutoff(true)
    }

    /// The −3 dB crossing nearest the peak on one side.  The peak search's
    /// own grid samples are walked outward from the peak; the crossing is
    /// bracketed by the first sample below `peak/√2` or, before it, by a
    /// local minimum of the samples whose refined valley dips below the
    /// threshold between two samples (passband ripple).  The bracket is then
    /// bisected in log-frequency.
    fn cutoff(&self, above: bool) -> Result<f64, AnalogError> {
        let peak = self.search_peak()?;
        let threshold = peak.g_peak / std::f64::consts::SQRT_2;
        let (freqs, gains) = (&peak.freqs, &peak.gains);
        let outward: Vec<usize> = if above {
            (peak.best + 1..freqs.len()).collect()
        } else {
            (0..peak.best).rev().collect()
        };
        for i in outward {
            // The neighbouring samples on the peak side and the far side.
            let inner = if above { i - 1 } else { i + 1 };
            let far = if above { Some(i + 1) } else { i.checked_sub(1) };
            let valley =
                far.filter(|&j| j < freqs.len() && gains[i] < gains[inner] && gains[i] <= gains[j]);
            let crossing = if gains[i] < threshold {
                Some(freqs[i])
            } else if let Some(far) = valley {
                let (lo, hi) = (freqs[inner.min(far)], freqs[inner.max(far)]);
                let (f_dip, g_dip) = self.golden_section(lo, hi, -1.0)?;
                (g_dip < threshold).then_some(f_dip)
            } else {
                None
            };
            if let Some(outer) = crossing {
                return if above {
                    self.bisect_crossing(freqs[inner], outer, threshold, false)
                } else {
                    self.bisect_crossing(outer, freqs[inner], threshold, true)
                };
            }
        }
        Err(AnalogError::ParameterNotFound {
            what: "-3 dB crossing".to_owned(),
        })
    }

    /// Bisects, in log-frequency, the −3 dB crossing bracketed by `[lo, hi]`
    /// until the bracket is [`FREQUENCY_TOLERANCE`] wide.  When `rising` is
    /// true the gain rises through the threshold as frequency increases
    /// (low-side skirt); otherwise it falls through it (high-side skirt).
    fn bisect_crossing(
        &self,
        lo: f64,
        hi: f64,
        threshold: f64,
        rising: bool,
    ) -> Result<f64, AnalogError> {
        let (mut a, mut b) = (lo.ln(), hi.ln());
        while b - a > FREQUENCY_TOLERANCE {
            let mid = (a + b) / 2.0;
            let below = self.gain_at(mid.exp())? < threshold;
            if rising == below {
                a = mid;
            } else {
                b = mid;
            }
        }
        Ok(((a + b) / 2.0).exp())
    }
}

/// Width, in natural-log frequency (so: relative frequency), at which the
/// golden-section peak search and the −3 dB crossing bisection stop.  The
/// gain is flat to ~1e-16 within 1e-8 of its peak, so a finer bracket
/// would only follow rounding noise.
pub const FREQUENCY_TOLERANCE: f64 = 1e-8;

/// The grid samples of a peak search and its refined maximum.
struct PeakSearch {
    freqs: Vec<f64>,
    gains: Vec<f64>,
    /// Index of the best grid sample.
    best: usize,
    f_peak: f64,
    g_peak: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Circuit, OpAmpModel};

    fn rc_lowpass(fc_hz: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        let r = 1.0e3;
        let cap = 1.0 / (std::f64::consts::TAU * fc_hz * r);
        c.resistor("R", vin, vout, r);
        c.capacitor("C", vout, Circuit::GROUND, cap);
        (c, vout)
    }

    /// A simple multiple-feedback band-pass around 1 kHz.
    fn active_bandpass() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vx = c.node("vx");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, vx, 10.0e3);
        c.resistor("R2", vx, Circuit::GROUND, 1.0e3);
        c.capacitor("C1", vx, vminus, 10.0e-9);
        c.capacitor("C2", vx, vout, 10.0e-9);
        c.resistor("R3", vminus, vout, 100.0e3);
        c.opamp("A1", Circuit::GROUND, vminus, vout, OpAmpModel::Ideal);
        (c, vout)
    }

    /// Three series-RLC band-pass lobes (Q = 2) summed by stacked VCVSs:
    /// 0.8 at 100 Hz, 1.0 at 10 kHz and 0.8 at 1 MHz.  The side lobes rise
    /// above `peak/√2`, so the response crosses the −3 dB level several
    /// times on each side of the 10 kHz peak.
    fn three_lobes() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        let mut lower = Circuit::GROUND;
        for (k, (f0, weight)) in [(100.0, 0.8), (10.0e3, 1.0), (1.0e6, 0.8)]
            .into_iter()
            .enumerate()
        {
            let omega = std::f64::consts::TAU * f0;
            let (mid, tap) = (c.node(&format!("m{k}")), c.node(&format!("x{k}")));
            c.inductor(&format!("L{k}"), vin, mid, 2000.0 / omega);
            c.capacitor(&format!("C{k}"), mid, tap, 1.0 / (2000.0 * omega));
            c.resistor(&format!("R{k}"), tap, Circuit::GROUND, 1.0e3);
            let upper = c.node(&format!("s{k}"));
            c.vcvs(&format!("E{k}"), upper, lower, tap, Circuit::GROUND, weight);
            lower = upper;
        }
        (c, lower)
    }

    #[test]
    fn cutoffs_are_the_crossings_nearest_the_peak() {
        let (c, out) = three_lobes();
        let an = ResponseAnalyzer::new(&c, "Vin", out);
        let (f0, g0) = an.peak().unwrap();
        assert!((f0 - 10.0e3).abs() < 200.0, "peak at {f0} Hz");
        let threshold = g0 / std::f64::consts::SQRT_2;
        // The 100 Hz lobe crosses the threshold too; the low cut-off is the
        // crossing just below the peak (≈ 7.8 kHz for Q = 2), not the first
        // rising crossing above the sweep start.
        let fl = an.low_cutoff().unwrap();
        let fh = an.high_cutoff().unwrap();
        assert!(fl > 5.0e3 && fl < f0, "low cut-off {fl} Hz");
        assert!(fh > f0 && fh < 20.0e3, "high cut-off {fh} Hz");
        for f in [fl, fh] {
            let g = an.gain_at(f).unwrap();
            assert!(
                (g - threshold).abs() < 1e-6 * threshold,
                "gain {g} at {f} Hz"
            );
        }
        assert!(an.gain_at(100.0).unwrap() > threshold);
        assert!(an.gain_at(1.0e6).unwrap() > threshold);
    }

    #[test]
    fn a_valley_between_sweep_samples_is_a_crossing() {
        // A low-pass (fc ≈ 100 kHz) with a narrow series-LC notch at 2 kHz
        // that dips below `peak/√2` between two sweep samples, both well
        // above it: the high cut-off is the notch's lower skirt, not the
        // 100 kHz roll-off.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let (out, mid, tap, lp) = (c.node("out"), c.node("mid"), c.node("tap"), c.node("lp"));
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rs", vin, out, 1.0e3);
        let notch_hz = 2.0e3;
        let lc = (std::f64::consts::TAU * notch_hz).powi(-2);
        c.inductor("L", out, mid, 1.0);
        c.capacitor("C", mid, tap, lc);
        c.resistor("Rn", tap, Circuit::GROUND, 40.0);
        c.resistor("R2", out, lp, 100.0e3);
        c.capacitor("C2", lp, Circuit::GROUND, 15.9e-12);
        let sweep = SweepConfig {
            start_hz: 1.0,
            stop_hz: 1.0e6,
            points_per_decade: 5,
        };
        let an = ResponseAnalyzer::new(&c, "Vin", lp).with_sweep(sweep);
        let (_, g0) = an.peak().unwrap();
        let threshold = g0 / std::f64::consts::SQRT_2;
        assert!(an.gain_at(notch_hz).unwrap() < threshold);
        for f in sweep.frequencies().into_iter().filter(|&f| f < 50.0e3) {
            assert!(an.gain_at(f).unwrap() > threshold, "sample {f} Hz");
        }
        let fh = an.high_cutoff().unwrap();
        assert!(fh > 1.8e3 && fh < notch_hz, "high cut-off {fh} Hz");
        let g = an.gain_at(fh).unwrap();
        assert!((g - threshold).abs() < 1e-6 * threshold);
    }

    #[test]
    fn sweep_config_generates_log_grid() {
        let cfg = SweepConfig {
            start_hz: 1.0,
            stop_hz: 1000.0,
            points_per_decade: 10,
        };
        let f = cfg.frequencies();
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f.last().unwrap() - 1000.0).abs() < 1e-6);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
        assert!(f.len() >= 30);
    }

    #[test]
    fn lowpass_dc_gain_and_high_cutoff() {
        let (c, vout) = rc_lowpass(1000.0);
        let an = ResponseAnalyzer::new(&c, "Vin", vout);
        assert!((an.dc_gain().unwrap() - 1.0).abs() < 1e-6);
        let fh = an.high_cutoff().unwrap();
        assert!(
            (fh - 1000.0).abs() / 1000.0 < 0.02,
            "high cutoff {fh} should be near 1 kHz"
        );
        // A first-order low-pass has no low-side −3 dB point.
        assert!(an.low_cutoff().is_err());
    }

    #[test]
    fn bandpass_center_and_cutoffs() {
        let (c, vout) = active_bandpass();
        let an = ResponseAnalyzer::new(&c, "Vin", vout);
        let (f0, g0) = an.peak().unwrap();
        assert!(f0 > 100.0 && f0 < 10_000.0, "center frequency {f0}");
        assert!(g0 > 1.0, "peak gain {g0}");
        let fl = an.low_cutoff().unwrap();
        let fh = an.high_cutoff().unwrap();
        assert!(fl < f0 && f0 < fh, "fl={fl} f0={f0} fh={fh}");
        // At the cut-offs the gain is peak/sqrt(2) within tolerance.
        let target = g0 / std::f64::consts::SQRT_2;
        assert!((an.gain_at(fl).unwrap() - target).abs() / target < 0.01);
        assert!((an.gain_at(fh).unwrap() - target).abs() / target < 0.01);
    }

    #[test]
    fn frequency_response_sweep_and_peak() {
        let (c, vout) = active_bandpass();
        let resp = FrequencyResponse::sweep(&c, "Vin", vout, &SweepConfig::default()).unwrap();
        assert!(!resp.points().is_empty());
        let (f_peak, g_peak) = resp.peak();
        assert!(f_peak > 100.0 && f_peak < 10_000.0);
        assert!(g_peak > resp.low_frequency_gain());
        assert!(g_peak > resp.high_frequency_gain());
    }

    #[test]
    fn shared_mna_analyzer_matches_owned_and_reuses_factorizations() {
        let (c, vout) = rc_lowpass(1000.0);
        let mna = Mna::new(&c);
        let shared = ResponseAnalyzer::from_mna(&mna, "Vin", vout);
        let owned = ResponseAnalyzer::new(&c, "Vin", vout);
        assert_eq!(shared.dc_gain().unwrap(), owned.dc_gain().unwrap());
        let fh_shared = shared.high_cutoff().unwrap();
        let fh_owned = owned.high_cutoff().unwrap();
        assert!((fh_shared - fh_owned).abs() < 1e-9);
        // A second extraction over the same analyzer re-solves the same
        // frequency grid: the cached factorizations must absorb most of it.
        let stats_before = mna.solver_stats();
        let _ = shared.high_cutoff().unwrap();
        let stats_after = mna.solver_stats();
        let new_solves = stats_after.solves - stats_before.solves;
        let new_factorizations = stats_after.factorizations - stats_before.factorizations;
        assert!(
            new_factorizations < new_solves / 2,
            "repeat extraction should be cache-dominated: {new_factorizations} factorizations for {new_solves} solves"
        );
        // The sweep helper can share the same engine.
        let resp =
            FrequencyResponse::sweep_with_mna(&mna, "Vin", vout, &SweepConfig::default()).unwrap();
        assert!(!resp.points().is_empty());
    }
}

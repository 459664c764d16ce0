//! Resistor ladders generating the reference voltages of the conversion
//! block (the `Rc1..Rc3` / `R1..R16` elements of the paper).

use crate::ConversionError;

/// A series resistor ladder between a reference voltage and ground.
///
/// With `n` resistors the ladder produces `n − 1` tap voltages
/// `Vt1 < Vt2 < … < Vt(n−1)`, counted from the ground end.
#[derive(Clone, Debug, PartialEq)]
pub struct ResistorLadder {
    resistors: Vec<f64>,
    v_ref: f64,
}

impl ResistorLadder {
    /// Creates a ladder with explicit resistor values (bottom first).
    ///
    /// # Errors
    ///
    /// Returns [`ConversionError::InvalidLadder`] when fewer than two
    /// resistors are supplied or any value is not positive.
    pub fn new(resistors: Vec<f64>, v_ref: f64) -> Result<Self, ConversionError> {
        if resistors.len() < 2 {
            return Err(ConversionError::InvalidLadder {
                reason: "a ladder needs at least two resistors".to_owned(),
            });
        }
        if resistors.iter().any(|&r| r <= 0.0 || !r.is_finite()) {
            return Err(ConversionError::InvalidLadder {
                reason: "resistor values must be positive and finite".to_owned(),
            });
        }
        Ok(ResistorLadder { resistors, v_ref })
    }

    /// Creates a ladder of `count` equal resistors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResistorLadder::new`].
    pub fn uniform(count: usize, v_ref: f64) -> Result<Self, ConversionError> {
        Self::new(vec![1.0e3; count], v_ref)
    }

    /// The reference (top-rail) voltage.
    pub fn v_ref(&self) -> f64 {
        self.v_ref
    }

    /// Number of resistors.
    pub fn resistor_count(&self) -> usize {
        self.resistors.len()
    }

    /// Number of taps (reference voltages).
    pub fn tap_count(&self) -> usize {
        self.resistors.len() - 1
    }

    /// Resistor values, bottom (ground side) first.
    pub fn resistors(&self) -> &[f64] {
        &self.resistors
    }

    /// The tap voltages `Vt1..Vt(n−1)`, counted from the ground end.
    pub fn tap_voltages(&self) -> Vec<f64> {
        let total: f64 = self.resistors.iter().sum();
        let mut taps = Vec::with_capacity(self.tap_count());
        let mut acc = 0.0;
        for &r in &self.resistors[..self.resistors.len() - 1] {
            acc += r;
            taps.push(self.v_ref * acc / total);
        }
        taps
    }

    /// The voltage of tap `index` (1-based, like the paper's `Vt1..Vt15`).
    ///
    /// # Errors
    ///
    /// Returns [`ConversionError::TapOutOfRange`] when `index` is 0 or larger
    /// than the number of taps.
    pub fn tap_voltage(&self, index: usize) -> Result<f64, ConversionError> {
        if index == 0 || index > self.tap_count() {
            return Err(ConversionError::TapOutOfRange {
                index,
                taps: self.tap_count(),
            });
        }
        Ok(self.tap_voltages()[index - 1])
    }

    /// Returns a copy of the ladder with resistor `index` (1-based, bottom
    /// first) deviated by the relative amount `relative`.
    ///
    /// # Errors
    ///
    /// Returns [`ConversionError::ResistorOutOfRange`] for a bad index.
    pub fn with_deviation(
        &self,
        index: usize,
        relative: f64,
    ) -> Result<ResistorLadder, ConversionError> {
        if index == 0 || index > self.resistors.len() {
            return Err(ConversionError::ResistorOutOfRange {
                index,
                resistors: self.resistors.len(),
            });
        }
        let mut resistors = self.resistors.clone();
        resistors[index - 1] *= 1.0 + relative;
        ResistorLadder::new(resistors, self.v_ref)
    }

    /// `self.with_deviation(resistor, relative)?.tap_voltage(tap)?`, bit for
    /// bit (the same sums in the same order), without building the deviated
    /// ladder: the inner loop of the ladder-coverage search.
    ///
    /// # Errors
    ///
    /// The errors of [`ResistorLadder::with_deviation`] and
    /// [`ResistorLadder::tap_voltage`].
    pub(crate) fn deviated_tap_voltage(
        &self,
        resistor: usize,
        relative: f64,
        tap: usize,
    ) -> Result<f64, ConversionError> {
        if resistor == 0 || resistor > self.resistors.len() {
            return Err(ConversionError::ResistorOutOfRange {
                index: resistor,
                resistors: self.resistors.len(),
            });
        }
        let deviated = self.resistors[resistor - 1] * (1.0 + relative);
        if deviated <= 0.0 || !deviated.is_finite() {
            return Err(ConversionError::InvalidLadder {
                reason: "resistor values must be positive and finite".to_owned(),
            });
        }
        if tap == 0 || tap > self.tap_count() {
            return Err(ConversionError::TapOutOfRange {
                index: tap,
                taps: self.tap_count(),
            });
        }
        let value = |i: usize| {
            if i == resistor - 1 {
                deviated
            } else {
                self.resistors[i]
            }
        };
        let total: f64 = (0..self.resistors.len()).map(value).sum();
        let mut acc = 0.0;
        for i in 0..tap {
            acc += value(i);
        }
        Ok(self.v_ref * acc / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviated_tap_voltage_is_bit_identical_to_the_deviated_ladder() {
        let ladder =
            ResistorLadder::new((1..=16).map(|i| 900.0 + 17.0 * f64::from(i)).collect(), 4.0)
                .unwrap();
        for resistor in 1..=16 {
            for relative in [-0.999, -0.5, -0.013, 0.0071, 0.25, 3.0, 50.0] {
                let deviated = ladder.with_deviation(resistor, relative).unwrap();
                for tap in 1..=15 {
                    assert_eq!(
                        ladder
                            .deviated_tap_voltage(resistor, relative, tap)
                            .unwrap()
                            .to_bits(),
                        deviated.tap_voltage(tap).unwrap().to_bits(),
                        "resistor {resistor}, deviation {relative}, tap {tap}"
                    );
                }
            }
        }
        assert!(ladder.deviated_tap_voltage(0, 0.1, 1).is_err());
        assert!(ladder.deviated_tap_voltage(1, -1.0, 1).is_err());
        assert!(ladder.deviated_tap_voltage(1, 0.1, 16).is_err());
    }

    #[test]
    fn uniform_ladder_taps_are_evenly_spaced() {
        let l = ResistorLadder::uniform(16, 4.0).unwrap();
        assert_eq!(l.resistor_count(), 16);
        assert_eq!(l.tap_count(), 15);
        let taps = l.tap_voltages();
        for (i, &v) in taps.iter().enumerate() {
            let expected = 4.0 * (i + 1) as f64 / 16.0;
            assert!((v - expected).abs() < 1e-12, "tap {} = {v}", i + 1);
        }
        assert!((l.tap_voltage(8).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(l.v_ref(), 4.0);
    }

    #[test]
    fn deviation_shifts_taps_monotonically() {
        let l = ResistorLadder::uniform(16, 4.0).unwrap();
        // Increasing a bottom resistor raises every tap above it.
        let faulty = l.with_deviation(1, 0.5).unwrap();
        for k in 1..=15 {
            assert!(faulty.tap_voltage(k).unwrap() > l.tap_voltage(k).unwrap());
        }
        // Increasing the top resistor lowers every tap.
        let faulty_top = l.with_deviation(16, 0.5).unwrap();
        for k in 1..=15 {
            assert!(faulty_top.tap_voltage(k).unwrap() < l.tap_voltage(k).unwrap());
        }
        // The original ladder is untouched.
        assert!((l.tap_voltage(1).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_constructions_are_rejected() {
        assert!(matches!(
            ResistorLadder::new(vec![1.0], 4.0),
            Err(ConversionError::InvalidLadder { .. })
        ));
        assert!(matches!(
            ResistorLadder::new(vec![1.0, -1.0], 4.0),
            Err(ConversionError::InvalidLadder { .. })
        ));
        let l = ResistorLadder::uniform(4, 4.0).unwrap();
        assert!(matches!(
            l.tap_voltage(0),
            Err(ConversionError::TapOutOfRange { .. })
        ));
        assert!(matches!(
            l.tap_voltage(4),
            Err(ConversionError::TapOutOfRange { .. })
        ));
        assert!(matches!(
            l.with_deviation(0, 0.1),
            Err(ConversionError::ResistorOutOfRange { .. })
        ));
        assert!(matches!(
            l.with_deviation(5, 0.1),
            Err(ConversionError::ResistorOutOfRange { .. })
        ));
    }
}

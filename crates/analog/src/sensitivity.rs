//! Sensitivity and worst-case element-deviation analysis (§2.1 of the paper).
//!
//! For every pair *(parameter T, element x)* the analysis computes the
//! smallest relative deviation of *x* that is guaranteed to push *T* out of
//! its tolerance box — the **element deviation** (E.D.) reported in
//! Example 1, Table 3 and Table 8 of the paper.  In worst-case mode, all
//! other (fault-free) elements are allowed to sit anywhere inside their own
//! tolerance, partially masking the fault, exactly as the paper's
//! "worst element tolerance" computation.

use msatpg_exec::{ExecPolicy, WorkerPool};

use crate::mna::Mna;
use crate::netlist::{Circuit, ElementId};
use crate::params::{measure_with_mna, ParameterSpec};
use crate::tolerance::{relative_deviation, Tolerance};
use crate::AnalogError;

/// Normalized sensitivity `S = (∂T/T) / (∂x/x)` of a parameter with respect
/// to an element value, estimated by central finite differences.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn normalized_sensitivity(
    circuit: &Circuit,
    spec: &ParameterSpec,
    element: ElementId,
    step: f64,
) -> Result<f64, AnalogError> {
    let mna = Mna::new(circuit);
    normalized_sensitivity_with_mna(&mna, spec, element, step)
}

/// Like [`normalized_sensitivity`], but probes an existing MNA engine
/// ([`Mna::probe`]) instead of cloning and re-stamping the circuit twice.
/// The engine is left unchanged.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn normalized_sensitivity_with_mna(
    mna: &Mna<'_>,
    spec: &ParameterSpec,
    element: ElementId,
    step: f64,
) -> Result<f64, AnalogError> {
    let nominal = measure_with_mna(mna, spec)?;
    if nominal == 0.0 {
        return Ok(0.0);
    }
    let base = mna.value(element);
    let t_up = mna.probe(element, base * (1.0 + step), || measure_with_mna(mna, spec))?;
    let t_down = mna.probe(element, base * (1.0 - step), || measure_with_mna(mna, spec))?;
    Ok(((t_up - t_down) / nominal) / (2.0 * step))
}

/// Relative width at which the bisection of a directional deviation
/// threshold stops: the reported deviation is at most this fraction above
/// the exact threshold.  Deviations the paper prints at 0.1 % resolution
/// need nothing finer.
pub const DEVIATION_TOLERANCE: f64 = 1e-6;

/// One row of a [`DeviationReport`]: the detectable deviation of one element
/// through one parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviationRow {
    /// Parameter name.
    pub parameter: String,
    /// Element name.
    pub element: String,
    /// Element id in the analyzed circuit.
    pub element_id: ElementId,
    /// Smallest guaranteed-detectable relative deviation (fraction), or
    /// `None` when no deviation up to the search cap moves the parameter out
    /// of its tolerance box (the `0` / dashed entries of the paper's tables).
    pub detectable_deviation: Option<f64>,
}

/// Result of a [`WorstCaseAnalysis`] run: the full parameter × element
/// deviation matrix.
#[derive(Clone, Debug, Default)]
pub struct DeviationReport {
    rows: Vec<DeviationRow>,
    parameters: Vec<String>,
    elements: Vec<(ElementId, String)>,
}

impl DeviationReport {
    /// All rows (one per parameter × element pair).
    pub fn rows(&self) -> &[DeviationRow] {
        &self.rows
    }

    /// Parameter names, in analysis order.
    pub fn parameters(&self) -> &[String] {
        &self.parameters
    }

    /// Analyzed elements as `(id, name)` pairs.
    pub fn elements(&self) -> &[(ElementId, String)] {
        &self.elements
    }

    /// Looks up the detectable deviation for a `(parameter, element)` pair.
    pub fn deviation(&self, parameter: &str, element: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.parameter == parameter && r.element == element)
            .and_then(|r| r.detectable_deviation)
    }

    /// The element coverage: for each element, the minimum detectable
    /// deviation over all parameters (`None` if no parameter detects it).
    pub fn element_coverage(&self) -> Vec<(String, Option<f64>)> {
        self.elements
            .iter()
            .map(|(_, name)| {
                let best = self
                    .rows
                    .iter()
                    .filter(|r| &r.element == name)
                    .filter_map(|r| r.detectable_deviation)
                    .fold(f64::INFINITY, f64::min);
                (
                    name.clone(),
                    if best.is_finite() { Some(best) } else { None },
                )
            })
            .collect()
    }

    /// Renders the matrix as a plain-text table with deviations in percent
    /// (the layout of Equation 1 / Table 3 in the paper).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<8}", ""));
        for (_, e) in &self.elements {
            out.push_str(&format!("{e:>9}"));
        }
        out.push('\n');
        for p in &self.parameters {
            out.push_str(&format!("{p:<8}"));
            for (_, e) in &self.elements {
                let cell = match self.deviation(p, e) {
                    Some(d) => format!("{:.1}", d * 100.0),
                    None => "-".to_owned(),
                };
                out.push_str(&format!("{cell:>9}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Worst-case element-deviation analysis.
///
/// # Example
///
/// ```
/// use msatpg_analog::filters;
/// use msatpg_analog::sensitivity::WorstCaseAnalysis;
///
/// let filter = filters::second_order_band_pass();
/// let report = WorstCaseAnalysis::new(filter.circuit(), filter.parameters())
///     .with_parameter_tolerance(0.05)
///     .run()
///     .unwrap();
/// // The center-frequency gain A1 of the Tow-Thomas band-pass depends only
/// // on Rd and Rg.
/// assert!(report.deviation("A1", "Rd").is_some());
/// assert!(report.deviation("A1", "R1").is_none());
/// ```
pub struct WorstCaseAnalysis<'a> {
    circuit: &'a Circuit,
    parameters: &'a [ParameterSpec],
    parameter_tolerance: Tolerance,
    element_tolerance: Tolerance,
    worst_case: bool,
    max_deviation: f64,
    elements: Option<Vec<ElementId>>,
    policy: ExecPolicy,
}

impl<'a> WorstCaseAnalysis<'a> {
    /// Creates an analysis of `circuit` over the given parameter set with the
    /// paper's defaults (±5 % parameter and element tolerances, worst-case
    /// masking enabled, deviations searched up to 500 %).
    pub fn new(circuit: &'a Circuit, parameters: &'a [ParameterSpec]) -> Self {
        WorstCaseAnalysis {
            circuit,
            parameters,
            parameter_tolerance: Tolerance::default(),
            element_tolerance: Tolerance::default(),
            worst_case: true,
            max_deviation: 5.0,
            elements: None,
            policy: ExecPolicy::Serial,
        }
    }

    /// Sets the execution policy: deviation rows are independent, so they
    /// are distributed over the worker pool.  Every probe is a rank-one
    /// update of the engine's nominal systems ([`Mna::probe`]), whose result
    /// does not depend on what the engine solved before, which makes the
    /// report a pure function of the inputs — `Threads(n)` output is
    /// byte-identical to `Serial` for every `n` (asserted by the determinism
    /// suite).
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the parameter tolerance box (fraction, e.g. `0.05`).
    pub fn with_parameter_tolerance(mut self, fraction: f64) -> Self {
        self.parameter_tolerance = Tolerance::from_fraction(fraction);
        self
    }

    /// Sets the fault-free element tolerance used for worst-case masking.
    pub fn with_element_tolerance(mut self, fraction: f64) -> Self {
        self.element_tolerance = Tolerance::from_fraction(fraction);
        self
    }

    /// Enables or disables worst-case masking by fault-free elements
    /// (disabled = "nominal" mode, all other elements at nominal value).
    pub fn with_worst_case(mut self, enabled: bool) -> Self {
        self.worst_case = enabled;
        self
    }

    /// Sets the largest relative deviation searched (fraction).
    pub fn with_max_deviation(mut self, fraction: f64) -> Self {
        self.max_deviation = fraction;
        self
    }

    /// Restricts the analysis to a subset of elements (default: all passive
    /// elements).
    pub fn with_elements(mut self, elements: Vec<ElementId>) -> Self {
        self.elements = Some(elements);
        self
    }

    /// Runs the analysis.
    ///
    /// Every worker owns one MNA engine for the whole run.  Each deviation
    /// probe — one step of an element's sensitivity or threshold search —
    /// is a rank-one update of that engine's nominal per-frequency
    /// factorizations ([`Mna::probe`]), so the engine is never patched,
    /// its warm systems serve every row it claims, and a row's value does
    /// not depend on which worker computed it.  Rows are independent, so
    /// they run on the worker pool under the configured [`ExecPolicy`] and
    /// are merged back in `(parameter, element)` order.  The worst-case
    /// masking sensitivities are computed once per `(parameter, element)`
    /// pair and shared across all faulty-element rows of the parameter.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (singular matrices, unknown nodes,
    /// missing response features).
    pub fn run(&self) -> Result<DeviationReport, AnalogError> {
        self.run_on(&WorkerPool::new(self.policy))
    }

    /// Like [`WorstCaseAnalysis::run`], but rides a caller-provided
    /// [`WorkerPool`] so a larger flow (the mixed-signal ATPG) charges the
    /// deviation rows to the same pool as its other stages.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (singular matrices, unknown nodes,
    /// missing response features).
    pub fn run_on(&self, pool: &WorkerPool) -> Result<DeviationReport, AnalogError> {
        let elements = match &self.elements {
            Some(e) => e.clone(),
            None => self.circuit.passive_elements(),
        };
        let element_names: Vec<(ElementId, String)> = elements
            .iter()
            .map(|&id| (id, self.circuit.element(id).name.clone()))
            .collect();
        let nominals = {
            let mna = Mna::new(self.circuit);
            self.parameters
                .iter()
                .map(|spec| measure_with_mna(&mna, spec))
                .collect::<Result<Vec<f64>, AnalogError>>()?
        };
        // One work unit per (parameter, element) pair, parameter-major.
        let pairs: Vec<(usize, ElementId)> = (0..self.parameters.len())
            .flat_map(|p| elements.iter().map(move |&e| (p, e)))
            .collect();
        let engine = || Mna::new(self.circuit);
        // First-order masking margins contributed by fault-free elements:
        // Σ_{j≠faulty} |S_j| · tol_element.  The sensitivities depend only
        // on (parameter, element), so compute each once and derive every
        // row's margin from the parameter's shared total.
        let sensitivities: Vec<f64> = if self.worst_case {
            let chunks = pool.run_chunks(&pairs, 1, engine, |mna, _, _, chunk| {
                chunk
                    .iter()
                    .map(|&(p, e)| {
                        if nominals[p] == 0.0 {
                            return Ok(0.0);
                        }
                        normalized_sensitivity_with_mna(mna, &self.parameters[p], e, 0.01)
                    })
                    .collect::<Result<Vec<f64>, AnalogError>>()
            });
            let mut flat = Vec::with_capacity(pairs.len());
            for chunk in chunks {
                flat.extend(chunk?);
            }
            flat
        } else {
            vec![0.0; pairs.len()]
        };
        let totals: Vec<f64> = (0..self.parameters.len())
            .map(|p| {
                let row = &sensitivities[p * elements.len()..(p + 1) * elements.len()];
                row.iter().map(|s| s.abs()).sum()
            })
            .collect();
        let row_chunks = pool.run_chunks(&pairs, 1, engine, |mna, _, offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, &(p, element))| {
                    let spec = &self.parameters[p];
                    let mask = (totals[p] - sensitivities[offset + k].abs())
                        * self.element_tolerance.fraction();
                    let detectable =
                        self.minimum_detectable_deviation(mna, spec, element, nominals[p], mask)?;
                    Ok(DeviationRow {
                        parameter: spec.name.clone(),
                        element: self.circuit.element(element).name.clone(),
                        element_id: element,
                        detectable_deviation: detectable,
                    })
                })
                .collect::<Result<Vec<DeviationRow>, AnalogError>>()
        });
        let mut rows = Vec::with_capacity(pairs.len());
        for chunk in row_chunks {
            rows.extend(chunk?);
        }
        Ok(DeviationReport {
            rows,
            parameters: self.parameters.iter().map(|p| p.name.clone()).collect(),
            elements: element_names,
        })
    }

    /// Finds the smallest deviation (searched in both directions) whose
    /// effect on the parameter exceeds `tolerance + mask`.  Returns the
    /// *larger* of the two directional thresholds so that any deviation of
    /// that magnitude is detectable regardless of sign; `None` when either
    /// direction stays inside the box up to the cap.
    fn minimum_detectable_deviation(
        &self,
        mna: &Mna<'_>,
        spec: &ParameterSpec,
        element: ElementId,
        nominal: f64,
        mask: f64,
    ) -> Result<Option<f64>, AnalogError> {
        let threshold = self.parameter_tolerance.fraction() + mask;
        let up = self.directional_threshold(mna, spec, element, nominal, threshold, 1.0)?;
        let down = self.directional_threshold(mna, spec, element, nominal, threshold, -1.0)?;
        Ok(match (up, down) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        })
    }

    fn directional_threshold(
        &self,
        mna: &Mna<'_>,
        spec: &ParameterSpec,
        element: ElementId,
        nominal: f64,
        threshold: f64,
        sign: f64,
    ) -> Result<Option<f64>, AnalogError> {
        let base = mna.value(element);
        let effect = |deviation: f64| -> Result<f64, AnalogError> {
            let value = mna.probe(element, base * (1.0 + sign * deviation), || {
                measure_with_mna(mna, spec)
            })?;
            Ok(relative_deviation(value, nominal).abs())
        };
        // Exponential bracketing up to the cap, which is probed itself.
        // Negative deviations cannot exceed -100 % (element value would go
        // non-positive); clamp the search at -99.9 %.
        let cap = if sign < 0.0 {
            self.max_deviation.min(0.999)
        } else {
            self.max_deviation
        };
        let mut lo = 0.0f64;
        let mut hi = cap.min(0.01);
        loop {
            if effect(hi)? > threshold {
                break;
            }
            if hi >= cap {
                return Ok(None);
            }
            lo = hi;
            hi = cap.min(hi * 1.6);
        }
        // Bisection refinement down to the relative tolerance.
        while hi - lo > DEVIATION_TOLERANCE * hi {
            let mid = 0.5 * (lo + hi);
            if effect(mid)? > threshold {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(Some(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::params::{ParameterKind, ParameterSpec};

    /// A resistive divider: Vout = Vin · R2/(R1+R2); DC gain = 0.5 nominal.
    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, vout, 10.0e3);
        c.resistor("R2", vout, Circuit::GROUND, 10.0e3);
        c
    }

    fn dc_spec() -> ParameterSpec {
        ParameterSpec::new("Adc", ParameterKind::DcGain, "Vin", "vout")
    }

    #[test]
    fn normalized_sensitivity_of_divider() {
        let c = divider();
        let spec = dc_spec();
        let r1 = c.find_element("R1").unwrap();
        let r2 = c.find_element("R2").unwrap();
        // d(R2/(R1+R2))/dR1 · R1/T = -R1/(R1+R2) = -0.5 at R1 = R2.
        let s1 = normalized_sensitivity(&c, &spec, r1, 0.001).unwrap();
        let s2 = normalized_sensitivity(&c, &spec, r2, 0.001).unwrap();
        assert!((s1 + 0.5).abs() < 1e-3, "S(R1) = {s1}");
        assert!((s2 - 0.5).abs() < 1e-3, "S(R2) = {s2}");
    }

    #[test]
    fn nominal_mode_threshold_matches_analytic_value() {
        // In nominal mode (no masking), a 5 % box on the gain and sensitivity
        // 0.5 means the detectable deviation is about 10 % (slightly more in
        // the + direction because the function saturates).
        let c = divider();
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let d = report.deviation("Adc", "R2").expect("detectable");
        assert!(d > 0.08 && d < 0.15, "detectable deviation {d}");
    }

    #[test]
    fn worst_case_mode_requires_larger_deviation_than_nominal() {
        let c = divider();
        let specs = vec![dc_spec()];
        let nominal = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let worst = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(true)
            .run()
            .unwrap();
        let dn = nominal.deviation("Adc", "R1").unwrap();
        let dw = worst.deviation("Adc", "R1").unwrap();
        assert!(
            dw > dn,
            "worst-case threshold {dw} must exceed nominal threshold {dn}"
        );
    }

    #[test]
    fn independent_element_is_not_detectable() {
        // Add a resistor that does not influence the divider output at DC
        // (dangling branch to a capacitor).
        let mut c = divider();
        let vout = c.find_node("vout").unwrap();
        let extra = c.node("extra");
        c.resistor("R3", vout, extra, 1.0e3);
        c.capacitor("C1", extra, Circuit::GROUND, 1.0e-9);
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs).run().unwrap();
        assert_eq!(report.deviation("Adc", "R3"), None);
        let coverage = report.element_coverage();
        let r3 = coverage.iter().find(|(n, _)| n == "R3").unwrap();
        assert_eq!(r3.1, None);
        let r1 = coverage.iter().find(|(n, _)| n == "R1").unwrap();
        assert!(r1.1.is_some());
    }

    #[test]
    fn the_search_probes_its_cap() {
        // With the cap between the threshold and the next 1.6× bracket
        // point, only a probe at the cap itself detects the deviation.
        let c = divider();
        let specs = vec![dc_spec()];
        let analysis = |cap: f64| {
            WorstCaseAnalysis::new(&c, &specs)
                .with_worst_case(false)
                .with_max_deviation(cap)
                .run()
                .unwrap()
                .deviation("Adc", "R2")
        };
        let open = analysis(5.0).unwrap();
        let next_bracket = (0..)
            .map(|k| 0.01 * 1.6f64.powi(k))
            .find(|&x| x > open)
            .unwrap();
        let cap = 0.5 * (open + next_bracket);
        let capped = analysis(cap).expect("the cap is probed");
        assert!((capped - open).abs() <= 1e-6 * open, "{capped} vs {open}");
        assert_eq!(analysis(0.99 * open), None);
    }

    #[test]
    fn parallel_rows_are_bit_identical_to_serial() {
        let c = divider();
        let specs = vec![dc_spec()];
        let reference = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(true)
            .run()
            .unwrap();
        for threads in [1usize, 2, 8] {
            let parallel = WorstCaseAnalysis::new(&c, &specs)
                .with_worst_case(true)
                .with_policy(ExecPolicy::Threads(threads))
                .run()
                .unwrap();
            // DeviationRow derives PartialEq over exact f64 values: this is
            // bit-identity, not tolerance equality.
            assert_eq!(parallel.rows(), reference.rows(), "{threads} threads");
            assert_eq!(parallel.parameters(), reference.parameters());
            assert_eq!(parallel.elements(), reference.elements());
        }
    }

    #[test]
    fn report_table_renders() {
        let c = divider();
        let specs = vec![dc_spec()];
        let report = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let table = report.to_table();
        assert!(table.contains("Adc"));
        assert!(table.contains("R1"));
        assert_eq!(report.parameters(), &["Adc".to_owned()]);
        assert_eq!(report.elements().len(), 2);
        assert_eq!(report.rows().len(), 2);
    }
}

//! Dense-scan oracle for the worst-case deviation search.
//!
//! The search brackets each directional threshold in 1.6× steps and then
//! bisects it.  The oracle walks the same effect — the relative change of
//! the parameter — in fixed steps from one step up to the cap, and takes
//! the first step past the tolerance box.  In nominal mode every row of the
//! band-pass and state-variable reports must agree with the oracle within
//! one scan step, dashed rows included.
//!
//! Both sides measure through the same deviation probes ([`Mna::probe`]);
//! those are checked against rebuilt circuits by
//! `rank_one_probe_matches_rebuilt_circuit` in the property suite.  The
//! scan step is 0.1 % for single-frequency gain parameters and 1 % for
//! the peak and cut-off parameters, whose every measurement is a search.

use msatpg::analog::filters;
use msatpg::analog::mna::Mna;
use msatpg::analog::params::measure_with_mna;
use msatpg::analog::sensitivity::WorstCaseAnalysis;
use msatpg::analog::tolerance::relative_deviation;
use msatpg::analog::{ElementId, Tolerance};
use msatpg::analog::{FilterCircuit, ParameterKind, ParameterSpec};

/// The search cap of both sides: large enough for every band-pass and
/// state-variable threshold of interest, small enough to keep the scan of
/// the dashed rows short.
const CAP: f64 = 1.0;

/// The first scan step whose deviation moves `spec` out of its ±5 % box,
/// or `None` up to the cap (−99.9 % for decreases).
fn scan_direction(
    mna: &Mna<'_>,
    spec: &ParameterSpec,
    element: ElementId,
    nominal: f64,
    sign: f64,
    step: f64,
) -> Option<f64> {
    let cap = if sign < 0.0 { CAP.min(0.999) } else { CAP };
    let base = mna.value(element);
    let box_width = Tolerance::default().fraction();
    let steps = (cap / step).ceil() as usize;
    (1..=steps).map(|k| (k as f64 * step).min(cap)).find(|&d| {
        let value = mna
            .probe(element, base * (1.0 + sign * d), || {
                measure_with_mna(mna, spec)
            })
            .expect("measurable");
        relative_deviation(value, nominal).abs() > box_width
    })
}

fn check_filter(filter: &FilterCircuit) {
    let circuit = filter.circuit();
    let report = WorstCaseAnalysis::new(circuit, filter.parameters())
        .with_worst_case(false)
        .with_max_deviation(CAP)
        .run()
        .expect("deviation analysis succeeds");
    let mna = Mna::new(circuit);
    let mut checked = 0;
    for spec in filter.parameters() {
        let step = match spec.kind {
            ParameterKind::DcGain | ParameterKind::AcGain { .. } => 0.001,
            _ => 0.01,
        };
        let nominal = measure_with_mna(&mna, spec).expect("measurable");
        for &(element, ref name) in report.elements() {
            let up = scan_direction(&mna, spec, element, nominal, 1.0, step);
            let down = scan_direction(&mna, spec, element, nominal, -1.0, step);
            let scanned = up.zip(down).map(|(a, b)| a.max(b));
            let searched = report.deviation(&spec.name, name);
            let context = format!("{}: ({}, {name})", filter.name(), spec.name);
            match (searched, scanned) {
                (None, None) => {}
                (Some(s), Some(o)) => assert!(
                    (s - o).abs() <= step + 1e-9,
                    "{context}: search {s} vs scan {o} (step {step})"
                ),
                _ => panic!("{context}: search {searched:?} vs scan {scanned:?}"),
            }
            checked += 1;
        }
    }
    assert_eq!(checked, report.rows().len());
}

#[test]
fn band_pass_rows_agree_with_a_dense_scan() {
    check_filter(&filters::second_order_band_pass());
}

#[test]
fn state_variable_rows_agree_with_a_dense_scan() {
    check_filter(&filters::state_variable_filter());
}

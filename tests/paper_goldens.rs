//! Paper-fidelity goldens for the worst-case element-deviation analysis
//! (§2.1 of the paper).
//!
//! Each golden is the full parameter × element E.D. matrix of one paper
//! artifact, in percent as the paper prints it:
//!
//! * Example 1 (Equation 1): the Figure-2 band-pass, nominal mode and
//!   worst-case mode, plus the selected analog test set `{fc1, A1, A2}`;
//! * Table 8: the Figure-8 state-variable board, worst-case mode;
//! * Table 3: the Figure-7 fifth-order Chebyshev low-pass, nominal mode.
//!
//! The values were recorded with the fixed-iteration searches that preceded
//! the tolerance-driven ones, so they pin the numerics across that change.
//! Two cells differ from that recording, both corrected defects of the old
//! searches:
//!
//! * Table 3's E.D.(fc, C4) was 15.42 %: the old 201-point −3 dB scan
//!   stepped over a passband ripple valley that dips below the −3 dB level
//!   from a 15.13 % decrease of C4 on.  The cell pins the corrected onset,
//!   which `table3_fc_c4_cell_is_the_ripple_valley_onset` checks against a
//!   dense frequency scan.
//! * Example 1's worst-case E.D.(fc1, Rd) was `-`: the old bracketing never
//!   probed past its last 1.6× step (450.4 %) below the 500 % cap, so the
//!   453.8 % threshold was out of its reach.
//!
//! Numeric cells match within 0.1 percentage point (1e-3 as a fraction, the
//! precision the paper prints); `-` cells (no detectable deviation up to the
//! search cap) match exactly.

use msatpg::analog::coverage::CoverageGraph;
use msatpg::analog::filters;
use msatpg::analog::mna::Mna;
use msatpg::analog::sensitivity::{DeviationReport, WorstCaseAnalysis};
use msatpg::analog::FilterCircuit;

/// Largest allowed difference of a numeric cell, as a fraction.
const CELL_TOLERANCE: f64 = 1e-3;

const BAND_PASS_NOMINAL: &str = "
        Rg       Rd       C1       R2       C2       R3       R4       R1
A1   5.2632   5.0000      -        -        -        -        -        -
A2   5.2632      -     4.6185  36.2412  36.2412  36.2412  26.6008  36.2412
f0      -        -    10.8033  10.8033  10.8033  10.8033  10.2500  10.8033
fc1     -    25.0088  14.3512   8.5725   8.5725   8.5725   8.2005   8.5725
fc2     -    26.6247   8.6405  14.6682  14.6682  14.6682  13.6120  14.6682
";

const BAND_PASS_WORST_CASE: &str = "
        Rg       Rd       C1       R2       C2       R3       R4       R1
A1  11.1111  10.0005      -        -        -        -        -        -
A2  18.9451      -    15.7252      -        -        -        -        -
f0      -        -    46.9262  46.9262  46.9262  46.9262  38.0644  46.9261
fc1     -   453.7954  86.0372  43.8421  43.8421  43.8421  35.6197  43.8421
fc2     -   361.1969  32.0443  66.4609  66.4609  66.4609  49.2902  66.4609
";

const BOARD_WORST_CASE: &str = "
           R       R1       R2       R3       R8       C1       R6       R7       R9       C2       R4       R5
A1hf   11.1148      -        -    10.0036      -        -        -        -        -        -        -        -
A2max  25.0008  20.0010      -        -        -        -    20.0010  25.0008      -        -        -        -
A3dc   11.1111      -    10.0005      -        -        -        -        -        -        -        -        -
A3'dc  17.6472      -    15.0006      -        -        -        -        -        -        -    42.4259  42.4259
A1_10k 11.4860      -        -    10.3108      -        -        -        -        -        -        -        -
A2_10k 25.4730      -        -    20.3305  25.4500  25.4500      -        -        -        -        -        -
fh1        -        -        -    33.2815  49.0746  49.0746      -        -        -        -        -        -
";

const CHEBYSHEV_NOMINAL: &str = "
       R9      R10       R1       R2       C1       R3       R4       C3       C2       R5       R6       C5       C4       R7       R8
Adc  9.1038  12.7237   6.2378   5.0000      -        -        -        -        -        -        -        -        -     5.2632   5.0000
fc      -        -        -        -        -        -        -        -        -    14.9479  14.9479  11.5117  15.1318      -        -
A1   9.1038  12.7237   6.2378   7.5693  16.0281  77.1430  77.1430 218.1986  55.2198      -        -        -        -     5.2632   5.0000
A2   9.1038  12.7237   6.2378  16.5800   8.0133  22.6346  22.6346  62.9900  13.1502  27.8131  27.8131  28.2260  27.3400   5.2632   5.0000
A3   9.1038  12.7237   6.2378  61.6697   6.1690   7.3950   7.3950   4.2429  35.1953   5.8213   5.8213   6.0003   5.6471   5.2632   5.0000
A4   9.1038  12.7237   6.2378 399.2988   5.8121   4.2144   4.2144   3.4588   5.3510   2.2342   2.2342   2.4483   2.0508   5.2632   5.0000
A5   9.1038  12.7237   6.2378      -     5.7263   4.1619   4.1619   3.5643   4.9759   6.9956   6.9956   6.6937   9.1396   5.2632   5.0000
";

/// The deviation report of a filter at the paper's ±5 % parameter and
/// element tolerances.
fn report(filter: &FilterCircuit, worst_case: bool) -> DeviationReport {
    WorstCaseAnalysis::new(filter.circuit(), filter.parameters())
        .with_parameter_tolerance(0.05)
        .with_element_tolerance(0.05)
        .with_worst_case(worst_case)
        .run()
        .expect("deviation analysis succeeds")
}

/// Checks every cell of `report` against a golden table: a header line of
/// element names, then one line per parameter with one cell per element,
/// in percent, `-` for an undetectable pair.
fn assert_matches_golden(report: &DeviationReport, golden: &str, artifact: &str) {
    let mut lines = golden.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines
        .next()
        .expect("golden has a header")
        .split_whitespace()
        .collect();
    let elements: Vec<&str> = report.elements().iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(elements, header, "{artifact}: element order");
    let mut parameters = Vec::new();
    for line in lines {
        let mut cells = line.split_whitespace();
        let parameter = cells.next().expect("row has a parameter name");
        parameters.push(parameter);
        let cells: Vec<&str> = cells.collect();
        assert_eq!(cells.len(), header.len(), "{artifact}: row {parameter}");
        for (element, cell) in header.iter().zip(cells) {
            let actual = report.deviation(parameter, element);
            let context = format!("{artifact}: E.D.({parameter}, {element})");
            match (cell, actual) {
                ("-", None) => {}
                ("-", Some(d)) => panic!("{context}: expected -, got {:.4} %", d * 100.0),
                (_, None) => panic!("{context}: expected {cell} %, got -"),
                (_, Some(d)) => {
                    let expected: f64 = cell.parse::<f64>().expect("numeric cell") / 100.0;
                    assert!(
                        (d - expected).abs() <= CELL_TOLERANCE,
                        "{context}: expected {cell} %, got {:.4} %",
                        d * 100.0
                    );
                }
            }
        }
    }
    assert_eq!(
        report.parameters(),
        parameters,
        "{artifact}: parameter order"
    );
}

#[test]
fn example1_band_pass_nominal_matrix() {
    let filter = filters::second_order_band_pass();
    assert_matches_golden(
        &report(&filter, false),
        BAND_PASS_NOMINAL,
        "Example 1 (nominal)",
    );
}

#[test]
fn example1_band_pass_worst_case_matrix_and_test_set() {
    let filter = filters::second_order_band_pass();
    let report = report(&filter, true);
    assert_matches_golden(&report, BAND_PASS_WORST_CASE, "Example 1 (worst case)");
    let selection = CoverageGraph::from_report(&report).select_test_set();
    let mut selected = selection.parameters.clone();
    selected.sort();
    assert_eq!(selected, ["A1", "A2", "fc1"], "Example 1 test set");
    assert!((selection.coverage_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn table8_board_worst_case_matrix() {
    let filter = filters::state_variable_filter();
    assert_matches_golden(&report(&filter, true), BOARD_WORST_CASE, "Table 8");
}

#[test]
fn table3_chebyshev_nominal_matrix() {
    let filter = filters::fifth_order_chebyshev();
    assert_matches_golden(&report(&filter, false), CHEBYSHEV_NOMINAL, "Table 3");
}

#[test]
fn table3_fc_c4_cell_is_the_ripple_valley_onset() {
    // A decrease of C4 deepens the passband ripple valley near 900 Hz.  The
    // Chebyshev gain peaks at DC, so fc moves by far more than 5 % once the
    // valley dips below `DC gain/√2`: a dense scan (0.01 % frequency steps)
    // puts that onset between a 15.10 % and a 15.16 % decrease.
    let filter = filters::fifth_order_chebyshev();
    let c4 = filter.circuit().find_element("C4").expect("C4 exists");
    let valley_below_threshold = |decrease: f64| {
        let mut circuit = filter.circuit().clone();
        circuit.scale_value(c4, 1.0 - decrease);
        let output = filter.output_node();
        let mna = Mna::new(&circuit);
        let threshold = mna.gain("Vin", output, 0.0).expect("solves") / 2f64.sqrt();
        let mut f = 800.0;
        let mut lowest = f64::INFINITY;
        while f < 1000.0 {
            lowest = lowest.min(mna.gain("Vin", output, f).expect("solves"));
            f *= 1.0001;
        }
        lowest < threshold
    };
    assert!(!valley_below_threshold(0.1510));
    assert!(valley_below_threshold(0.1516));
    let d = report(&filter, false)
        .deviation("fc", "C4")
        .expect("fc detects C4");
    assert!(d > 0.1510 && d < 0.1516, "E.D.(fc, C4) = {d}");
}

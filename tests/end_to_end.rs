//! Cross-crate integration tests: the complete mixed-signal flow on the
//! paper's Figure-4 circuit and on the validation-board circuit.

use msatpg::analog::filters;
use msatpg::conversion::constraints::AllowedCodes;
use msatpg::conversion::{FlashAdc, SarAdc};
use msatpg::core::{AtpgOptions, ConverterBlock};
use msatpg::digital::circuits;
use msatpg::{MixedCircuit, MixedSignalAtpg};

fn figure4() -> MixedCircuit {
    let analog = filters::second_order_band_pass();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(2, 3.0).unwrap());
    let digital = circuits::figure3_circuit();
    let mut mixed = MixedCircuit::new("figure4", analog, converter, digital);
    mixed.connect_in_order(&["l0", "l2"]).unwrap();
    mixed.set_allowed_codes(AllowedCodes::new(
        2,
        vec![vec![true, false], vec![false, true], vec![true, true]],
    ));
    mixed
}

#[test]
fn figure4_full_flow_reproduces_example_2() {
    let atpg = MixedSignalAtpg::new(figure4());
    let plan = atpg.run().expect("the full flow succeeds");

    // Digital block: fully testable alone, two undetectable collapsed faults
    // under the conversion-block constraint (the paper's Example 2).
    assert_eq!(plan.digital_unconstrained.untestable_count(), 0);
    assert_eq!(plan.digital.untestable_count(), 2);
    assert!(plan.digital.detected < plan.digital.total_faults);

    // Analog block: all eight passive elements are analyzed and most are
    // testable end-to-end through the comparators and the digital block.
    assert_eq!(plan.analog.len(), 8);
    assert!(plan.analog_coverage() >= 0.5);

    // Conversion block: the ladder of the 2-comparator flash converter has
    // three resistors, all covered.
    assert_eq!(plan.conversion.len(), 3);
    assert!(plan
        .conversion
        .iter()
        .all(|entry| entry.detectable_deviation.is_some()));
}

#[test]
fn figure4_constrained_vectors_respect_fc() {
    let atpg = MixedSignalAtpg::new(figure4());
    let report = atpg.digital_constrained().unwrap();
    let codes = atpg.circuit().allowed_codes();
    let digital = atpg.circuit().digital();
    let l0 = digital.find_signal("l0").unwrap();
    let l2 = digital.find_signal("l2").unwrap();
    let pis: Vec<_> = digital.primary_inputs().to_vec();
    for vector in &report.vectors {
        let pattern = vector.concretize(false);
        let l0_pos = pis.iter().position(|&s| s == l0).unwrap();
        let l2_pos = pis.iter().position(|&s| s == l2).unwrap();
        assert!(
            codes.allows(&[pattern[l0_pos], pattern[l2_pos]]),
            "vector {} violates the conversion-block constraint",
            vector.to_pattern_string()
        );
    }
}

#[test]
fn board_circuit_flow_runs_with_a_binary_converter() {
    let analog = filters::state_variable_filter();
    let mut mixed = MixedCircuit::new(
        "figure8",
        analog,
        ConverterBlock::Binary {
            adc: SarAdc::ad7820(),
            lines: 4,
        },
        circuits::adder4(),
    );
    mixed.connect_in_order(&["a0", "a1", "a2", "a3"]).unwrap();
    let atpg = MixedSignalAtpg::new(mixed).with_options(AtpgOptions {
        worst_case: false,
        ..AtpgOptions::default()
    });
    // A binary converter imposes no code constraint, so the digital block
    // keeps its stand-alone coverage.
    let constrained = atpg.digital_constrained().unwrap();
    let unconstrained = atpg.digital_unconstrained().unwrap();
    assert_eq!(
        constrained.untestable_count(),
        unconstrained.untestable_count()
    );
    assert_eq!(
        unconstrained.untestable_count(),
        0,
        "the adder is fully testable"
    );
    // The conversion plan is empty for binary converters (no ladder).
    assert!(atpg.conversion_tests().unwrap().is_empty());
}

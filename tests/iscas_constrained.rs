//! Integration test of the Table-4 experiment on the smallest benchmark:
//! constrained vs. unconstrained OBDD ATPG on the c432 stand-in.

use msatpg::conversion::constraints::thermometer_codes;
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::DigitalAtpg;
use msatpg::core::ConverterBlock;
use msatpg::digital::benchmarks;
use msatpg::digital::fault::FaultList;
use msatpg::digital::fault_sim::FaultSimulator;
use msatpg::MixedCircuit;

#[test]
fn c432_constraints_increase_untestable_faults_and_effort() {
    let digital = benchmarks::c432();
    let faults = FaultList::collapsed(&digital);
    assert!(
        faults.len() > 200,
        "c432 stand-in has a substantial fault list"
    );

    // Case 1: direct access to the digital block.
    let mut free = DigitalAtpg::new(&digital);
    let report_free = free.run(&faults).expect("unconstrained ATPG");

    // Case 2: 15 inputs constrained to thermometer codes, selected with the
    // same pseudo-random procedure as the paper.
    let analog = msatpg::analog::filters::fifth_order_chebyshev();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap());
    let mut mixed = MixedCircuit::new("c432-mixed", analog, converter, digital.clone());
    mixed.connect_randomly(1995).unwrap();
    let mut constrained = DigitalAtpg::new(&digital)
        .with_constraints(&mixed.constrained_inputs(), &thermometer_codes(15))
        .unwrap();
    let report_constrained = constrained.run(&faults).expect("constrained ATPG");

    // Shape of Table 4: constraints can only lose coverage, never gain it.
    assert!(report_constrained.untestable_count() >= report_free.untestable_count());
    assert!(report_constrained.detected <= report_free.detected);
    // The unconstrained circuit is (almost) fully testable.
    assert!(
        report_free.coverage() > 0.95,
        "coverage {}",
        report_free.coverage()
    );

    // Every generated vector, in both cases, really detects its target fault.
    let sim = FaultSimulator::new(&digital);
    for report in [&report_free, &report_constrained] {
        for vector in &report.vectors {
            assert!(
                sim.detects(vector.fault, &vector.concretize(false))
                    .unwrap(),
                "{} does not detect {}",
                vector.to_pattern_string(),
                vector.fault.describe(&digital)
            );
        }
    }

    // Constrained vectors respect the thermometer-code constraint.
    let codes = thermometer_codes(15);
    let constrained_lines = mixed.constrained_inputs();
    let pis: Vec<_> = digital.primary_inputs().to_vec();
    for vector in &report_constrained.vectors {
        let pattern = vector.concretize(false);
        let constrained_bits: Vec<bool> = constrained_lines
            .iter()
            .map(|line| {
                let pos = pis.iter().position(|s| s == line).unwrap();
                pattern[pos]
            })
            .collect();
        assert!(
            codes.allows(&constrained_bits),
            "constrained vector violates the thermometer-code constraint"
        );
    }
}

#[test]
fn untestable_faults_are_really_untestable_by_random_search() {
    // Cross-check the ATPG's "untestable" verdicts on the Figure-3 circuit by
    // exhaustive enumeration of the constrained input space.
    let digital = msatpg::digital::circuits::figure3_circuit();
    let faults = FaultList::all(&digital);
    let l0 = digital.find_signal("l0").unwrap();
    let l2 = digital.find_signal("l2").unwrap();
    let codes = msatpg::conversion::constraints::AllowedCodes::new(
        2,
        vec![vec![true, false], vec![false, true], vec![true, true]],
    );
    let mut atpg = DigitalAtpg::new(&digital)
        .with_constraints(&[l0, l2], &codes)
        .unwrap();
    let report = atpg.run(&faults).unwrap();
    let sim = FaultSimulator::new(&digital);
    // Enumerate every input pattern allowed by Fc and confirm that none
    // detects an "untestable" fault.
    for &fault in &report.untestable {
        for pattern_bits in 0..16u32 {
            let pattern: Vec<bool> = (0..4).map(|b| (pattern_bits >> b) & 1 == 1).collect();
            // PI order: l0, l1, l2, l4.
            if !codes.allows(&[pattern[0], pattern[2]]) {
                continue;
            }
            assert!(
                !sim.detects(fault, &pattern).unwrap(),
                "fault {} claimed untestable but detected by {:?}",
                fault.describe(&digital),
                pattern
            );
        }
    }
}

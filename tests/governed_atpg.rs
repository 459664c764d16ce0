//! Acceptance test of the resource-governed ATPG (the robustness PR's
//! headline scenario): the constrained c432 campaign under a deliberately
//! tiny BDD node budget completes without panicking or hanging, reports the
//! affected faults as `Degraded` / `Aborted`, leaves the outcome of every
//! other fault unchanged, and stays byte-identical across thread counts.

use msatpg::bdd::BddBudget;
use msatpg::conversion::constraints::{thermometer_codes, AllowedCodes};
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::{AbortReason, AtpgReport, DigitalAtpg};
use msatpg::core::ConverterBlock;
use msatpg::digital::benchmarks;
use msatpg::digital::fault::{FaultList, StuckAtFault};
use msatpg::digital::fault_sim::FaultSimulator;
use msatpg::digital::netlist::SignalId;
use msatpg::exec::{ExecPolicy, WorkerPool};
use msatpg::MixedCircuit;
use std::collections::BTreeSet;

fn assert_reports_identical(a: &AtpgReport, b: &AtpgReport, context: &str) {
    assert_eq!(a.total_faults, b.total_faults, "{context}: total_faults");
    assert_eq!(a.detected, b.detected, "{context}: detected");
    assert_eq!(a.untestable, b.untestable, "{context}: untestable");
    assert_eq!(a.degraded, b.degraded, "{context}: degraded");
    assert_eq!(a.aborted, b.aborted, "{context}: aborted");
    assert_eq!(a.vectors, b.vectors, "{context}: vectors");
}

#[test]
fn c432_constrained_under_a_tiny_node_budget_degrades_gracefully() {
    let digital = benchmarks::c432();
    let faults = FaultList::collapsed(&digital);

    // The same constrained setup as the Table-4 experiment: 15 digital
    // inputs driven through a flash converter, admitting thermometer codes
    // only.
    let analog = msatpg::analog::filters::fifth_order_chebyshev();
    let converter = ConverterBlock::Flash(FlashAdc::uniform(15, 4.0).unwrap());
    let mut mixed = MixedCircuit::new("c432-mixed", analog, converter, digital.clone());
    mixed.connect_randomly(1995).unwrap();
    let lines: Vec<SignalId> = mixed.constrained_inputs();
    let codes: AllowedCodes = thermometer_codes(15);

    let engine = |budget: BddBudget| -> DigitalAtpg<'_> {
        DigitalAtpg::new(&digital)
            .with_constraints(&lines, &codes)
            .unwrap()
            .with_budget(budget)
    };

    // Ungoverned reference, and the protected baseline (signal functions
    // plus the constraint BDD) every governed target restarts from.
    let mut reference_engine = engine(BddBudget::UNLIMITED);
    let baseline = reference_engine.collect_garbage();
    let reference = reference_engine.run(&faults).unwrap();

    // A budget barely above the baseline: hard faults exhaust it while
    // shallow cones still fit.  The run must complete without panicking.
    let tiny = BddBudget::UNLIMITED.with_max_live_nodes(baseline + baseline / 16);
    let governed = engine(tiny).run(&faults).unwrap();

    // Every fault is accounted for, and the budget really fired.
    assert_eq!(
        governed.detected + governed.untestable_count() + governed.aborted_count(),
        faults.len()
    );
    assert!(
        governed.degraded_count() + governed.aborted_count() > 0,
        "the tiny budget must affect at least one fault"
    );
    assert!(governed
        .aborted
        .iter()
        .all(|(_, r)| *r == AbortReason::Budget));

    // Coverage for the unaffected faults is unchanged: a fault the
    // reference detected is either still detected (deterministically,
    // through sharing, or by the degradation fallback) or was aborted —
    // never silently lost.
    assert!(governed.detected + governed.aborted_count() >= reference.detected);
    // Untestability can only be decided within the budget, so governed
    // untestables are a subset of the reference's, and the missing ones
    // were aborted.
    let reference_untestable: BTreeSet<StuckAtFault> =
        reference.untestable.iter().copied().collect();
    let aborted_faults: BTreeSet<StuckAtFault> = governed.aborted.iter().map(|&(f, _)| f).collect();
    for fault in &governed.untestable {
        assert!(reference_untestable.contains(fault));
    }
    for fault in &reference.untestable {
        assert!(
            governed.untestable.contains(fault) || aborted_faults.contains(fault),
            "untestable fault {fault} vanished from the governed report"
        );
    }

    // Degraded vectors are real, fully specified, constraint-respecting
    // tests.
    let positions: Vec<usize> = lines
        .iter()
        .map(|&l| {
            digital
                .primary_inputs()
                .iter()
                .position(|&pi| pi == l)
                .unwrap()
        })
        .collect();
    let degraded: BTreeSet<StuckAtFault> = governed.degraded.iter().copied().collect();
    let sim = FaultSimulator::new(&digital);
    for vector in &governed.vectors {
        if !degraded.contains(&vector.fault) {
            continue;
        }
        assert!(vector.assignment.iter().all(Option::is_some));
        let pattern = vector.concretize(false);
        let constrained: Vec<bool> = positions.iter().map(|&i| pattern[i]).collect();
        assert!(codes.allows(&constrained), "degraded vector violates Fc");
        assert!(sim.detects(vector.fault, &pattern).unwrap());
    }

    // Byte-identical across thread counts.
    for threads in [1usize, 2, 8] {
        let parallel = engine(tiny)
            .run_on(&WorkerPool::new(ExecPolicy::Threads(threads)), &faults)
            .unwrap();
        assert_reports_identical(&parallel, &governed, &format!("threads={threads}"));
    }
}

//! Acceptance test of crash-consistent persistence and checkpoint/resume
//! (this PR's headline scenario): the constrained c432 campaign is
//! interrupted by a step-quota cancel token, checkpointed, and resumed —
//! and the resumed report is identical to the uninterrupted one, down to
//! the serialized bytes, at every thread count.  Deterministic store chaos
//! (crash, torn write, bit flip) during checkpoint writes never leaves a
//! checkpoint behind that loads as anything but a valid snapshot or a
//! structured [`StoreError`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use msatpg::bdd::BddBudget;
use msatpg::conversion::constraints::{thermometer_codes, AllowedCodes};
use msatpg::conversion::FlashAdc;
use msatpg::core::digital_atpg::{AbortReason, AtpgReport, DigitalAtpg};
use msatpg::core::store::{load_checkpoint, save_report};
use msatpg::core::{AtpgOptions, CheckpointPolicy, ConverterBlock, CoreError, StoreError};
use msatpg::digital::benchmarks;
use msatpg::digital::circuits;
use msatpg::digital::fault::FaultList;
use msatpg::digital::fault_sim::WordWidth;
use msatpg::digital::netlist::SignalId;
use msatpg::exec::{CancelToken, ChaosInjector, ExecPolicy, WorkerPool};
use msatpg::{MixedCircuit, MixedSignalAtpg};

/// A unique scratch path under the system temp directory.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "msatpg-ckpt-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_reports_identical(a: &AtpgReport, b: &AtpgReport, context: &str) {
    assert_eq!(a.circuit, b.circuit, "{context}: circuit");
    assert_eq!(a.total_faults, b.total_faults, "{context}: total_faults");
    assert_eq!(a.detected, b.detected, "{context}: detected");
    assert_eq!(a.untestable, b.untestable, "{context}: untestable");
    assert_eq!(a.degraded, b.degraded, "{context}: degraded");
    assert_eq!(a.aborted, b.aborted, "{context}: aborted");
    assert_eq!(a.vectors, b.vectors, "{context}: vectors");
    assert_eq!(a.constrained, b.constrained, "{context}: constrained");
}

/// Serializes a report with the wall-clock field zeroed (the only field
/// allowed to differ between two identical campaigns).
fn report_bytes(netlist: &msatpg::digital::netlist::Netlist, report: &AtpgReport) -> Vec<u8> {
    let mut normalized = report.clone();
    normalized.cpu = Duration::ZERO;
    let path = scratch("report-bytes");
    save_report(&path, netlist, &normalized).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// The headline scenario: a constrained c432 campaign under a tight node
/// budget is cancelled mid-run by a step quota, leaves a crash-consistent
/// checkpoint behind, and the resumed campaign — journaled prefix replayed,
/// aborted faults re-attempted under a fresh (quota-free) governor — is
/// byte-identical on disk to the campaign that was never interrupted, at
/// thread counts 1, 2 and 8.
#[test]
fn interrupted_c432_campaign_resumes_byte_identically() {
    let digital = benchmarks::c432();
    let faults = FaultList::collapsed(&digital);

    // The Table-4 constrained setup: 15 digital inputs driven through a
    // flash converter admitting thermometer codes only.
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

    // A budget barely above the protected baseline, so some faults abort
    // over resources too — the resumed run must re-attempt those under the
    // *same* budget and reproduce the same aborts.
    let baseline = engine(BddBudget::UNLIMITED).collect_garbage();
    let tight = BddBudget::UNLIMITED.with_max_live_nodes(baseline + baseline / 16);

    let reference = engine(tight).run(&faults).unwrap();
    let reference_bytes = report_bytes(&digital, &reference);

    // The interrupted campaign: the step quota fires after 25 targeted
    // faults (covered faults don't charge, so this is well inside the
    // campaign), the rest of the list becomes an `Aborted(Deadline)` tail,
    // and the final journal flush snapshots all of it.
    let path = scratch("c432");
    let interrupted = engine(tight)
        .with_cancel_token(CancelToken::with_step_quota(25))
        .with_checkpoint(CheckpointPolicy::default(), &path)
        .run(&faults)
        .unwrap();
    let deadline_tail = interrupted
        .aborted
        .iter()
        .filter(|(_, r)| *r == AbortReason::Deadline)
        .count();
    assert!(deadline_tail > 0, "the quota must actually interrupt");

    let snapshot = load_checkpoint(&path, &digital, faults.faults()).unwrap();
    assert_eq!(
        snapshot.outcomes.len(),
        faults.len(),
        "final flush is complete"
    );

    // The resume grid crosses thread policies with pattern-block widths:
    // the checkpoint was written by a one-lane campaign, and replaying it
    // under 512-bit PPSFP verification must not move a single byte.  The
    // last row is the `MSATPG_THREADS`/`MSATPG_WORD_WIDTH` pair the CI
    // matrix sets.
    let knobs = AtpgOptions::from_env();
    for (policy, width) in [
        (ExecPolicy::Serial, WordWidth::W8),
        (ExecPolicy::Threads(2), WordWidth::W1),
        (ExecPolicy::Threads(8), WordWidth::W8),
        (knobs.exec, knobs.word_width),
    ] {
        let resumed = engine(tight)
            .with_resume(snapshot.clone())
            .with_word_width(width)
            .run_on(&WorkerPool::new(policy), &faults)
            .unwrap();
        assert_reports_identical(
            &resumed,
            &reference,
            &format!("resume {policy:?} {width:?}"),
        );
        assert_eq!(
            report_bytes(&digital, &resumed),
            reference_bytes,
            "{policy:?} {width:?}: resumed report not byte-identical on disk"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The pattern-block width is invisible on disk: the same campaign
/// checkpointed at W = 1 and 8 leaves byte-identical snapshot files
/// behind (outcomes are width-independent and no timing is journaled).
#[test]
fn checkpoint_files_are_byte_identical_across_word_widths() {
    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let campaign = |width: WordWidth| {
        let path = scratch("width");
        DigitalAtpg::new(&circuit)
            .with_word_width(width)
            .with_checkpoint(CheckpointPolicy::default(), &path)
            .run(&faults)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    assert_eq!(
        campaign(WordWidth::W8),
        campaign(WordWidth::W1),
        "checkpoint bytes differ between the 8-lane and one-lane campaigns"
    );
}

/// A resume snapshot is validated against the campaign it claims to
/// continue: replaying a c432 checkpoint against a different circuit or
/// fault list is a structured [`CoreError::Store`], never a bad report.
#[test]
fn resume_snapshot_is_validated_against_the_campaign() {
    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let path = scratch("validate");
    DigitalAtpg::new(&circuit)
        .with_checkpoint(CheckpointPolicy::default(), &path)
        .run(&faults)
        .unwrap();
    let snapshot = load_checkpoint(&path, &circuit, faults.faults()).unwrap();
    std::fs::remove_file(&path).ok();

    // Same snapshot, different circuit: refused before any work happens.
    let other = circuits::figure3_circuit();
    let other_faults = FaultList::collapsed(&other);
    let err = DigitalAtpg::new(&other)
        .with_resume(snapshot.clone())
        .run(&other_faults)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Store { .. }),
        "expected CoreError::Store, got {err:?}"
    );

    // Same circuit, different fault list (full vs collapsed): refused too.
    let full = FaultList::all(&circuit);
    let err = DigitalAtpg::new(&circuit)
        .with_resume(snapshot)
        .run(&full)
        .unwrap_err();
    assert!(matches!(err, CoreError::Store { .. }));
}

/// Deterministic store chaos — crashes before the atomic rename, torn
/// non-atomic writes, single bit flips — during checkpoint flushes: the
/// campaign itself is untouched, and the file left behind either loads as
/// a valid (possibly older) snapshot that resumes correctly, or as a
/// structured [`StoreError`]; nothing panics, nothing parses as garbage.
#[test]
fn store_chaos_never_leaves_an_unusable_checkpoint_behind() {
    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let reference = DigitalAtpg::new(&circuit).run(&faults).unwrap();
    let policy = CheckpointPolicy {
        every: 8,
        on_abort: true,
        on_cancel: true,
    };
    for seed in 0..6u64 {
        let injectors = [
            ("crash", ChaosInjector::new(seed).with_crash_rate(2)),
            ("torn", ChaosInjector::new(seed).with_torn_write_rate(2)),
            ("bitflip", ChaosInjector::new(seed).with_bit_flip_rate(2)),
            (
                "mixed",
                ChaosInjector::new(seed)
                    .with_crash_rate(3)
                    .with_torn_write_rate(3)
                    .with_bit_flip_rate(3),
            ),
        ];
        for (kind, chaos) in injectors {
            let path = scratch(kind);
            let report = DigitalAtpg::new(&circuit)
                .with_chaos(chaos)
                .with_checkpoint(policy, &path)
                .run(&faults)
                .unwrap();
            // Store-class chaos corrupts files, never outcomes.
            assert_reports_identical(&report, &reference, &format!("{kind} seed={seed}"));
            match load_checkpoint(&path, &circuit, faults.faults()) {
                Ok(snapshot) => {
                    // A surviving snapshot is a usable prefix: resuming
                    // from it reproduces the reference exactly.
                    assert!(snapshot.outcomes.len() <= faults.len());
                    let resumed = DigitalAtpg::new(&circuit)
                        .with_resume(snapshot)
                        .run(&faults)
                        .unwrap();
                    assert_reports_identical(
                        &resumed,
                        &reference,
                        &format!("{kind} seed={seed} resumed"),
                    );
                }
                Err(
                    StoreError::Io { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::VersionMismatch { .. },
                ) => {
                    // Structured refusal — the torn/flipped file was
                    // detected, not misparsed.
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Exhaustive single-fault corruption of a real checkpoint file: every
/// truncation and every single-byte flip loads as a structured
/// [`StoreError`] — the reader never panics and never accepts a damaged
/// snapshot.
#[test]
fn every_corruption_of_a_checkpoint_loads_as_a_structured_error() {
    let circuit = circuits::adder4();
    let faults = FaultList::collapsed(&circuit);
    let path = scratch("fixture");
    DigitalAtpg::new(&circuit)
        .with_checkpoint(CheckpointPolicy::default(), &path)
        .run(&faults)
        .unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert!(load_checkpoint(&path, &circuit, faults.faults()).is_ok());

    let step = (pristine.len() / 64).max(1);
    // Truncations at every sampled byte count (including the empty file).
    for cut in (0..pristine.len()).step_by(step) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let err = load_checkpoint(&path, &circuit, faults.faults())
            .expect_err("truncated checkpoint must not load");
        assert!(
            !err.to_string().is_empty(),
            "cut={cut}: error must be descriptive"
        );
    }
    // Single-byte flips at every sampled offset: header, length fields,
    // checksum and payload corruption are all caught (by field validation
    // or by the FNV-1a checksum).
    for offset in (0..pristine.len()).step_by(step) {
        let mut damaged = pristine.clone();
        damaged[offset] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        let err = load_checkpoint(&path, &circuit, faults.faults())
            .expect_err("flipped checkpoint must not load");
        assert!(!err.to_string().is_empty(), "offset={offset}");
    }
    // A foreign format version is refused with the dedicated variant.
    let version_bumped = String::from_utf8(pristine.clone()).unwrap().replacen(
        "msatpg-store 1 ",
        "msatpg-store 2 ",
        1,
    );
    std::fs::write(&path, version_bumped).unwrap();
    assert!(matches!(
        load_checkpoint(&path, &circuit, faults.faults()),
        Err(StoreError::VersionMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// The mixed-signal flow's checkpoint directory: both digital stages
/// journal into it, a rerun resumes from the completed snapshots, and a
/// corrupted snapshot silently falls back to a fresh campaign — in every
/// case producing reports identical to an uncheckpointed run.
#[test]
fn mixed_signal_checkpoint_dir_resumes_and_survives_corruption() {
    let figure4 = || {
        let adc = FlashAdc::uniform(2, 3.0).unwrap();
        let mut mixed = MixedCircuit::new(
            "figure4",
            msatpg::analog::filters::second_order_band_pass(),
            ConverterBlock::Flash(adc),
            circuits::figure3_circuit(),
        );
        mixed.connect_in_order(&["l0", "l2"]).unwrap();
        mixed.set_allowed_codes(AllowedCodes::new(
            2,
            vec![vec![true, false], vec![false, true], vec![true, true]],
        ));
        mixed
    };
    let plain = MixedSignalAtpg::new(figure4());
    let reference_c = plain.digital_constrained().unwrap();
    let reference_u = plain.digital_unconstrained().unwrap();

    let dir = scratch("mixed-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let checkpointed =
        MixedSignalAtpg::new(figure4()).with_checkpoint(CheckpointPolicy::default(), &dir);

    // First run: journals fresh snapshots.
    let first = checkpointed.digital_constrained().unwrap();
    assert_reports_identical(&first, &reference_c, "checkpointed constrained");
    assert!(dir.join("digital_constrained.ckpt").is_file());
    let unconstrained = checkpointed.digital_unconstrained().unwrap();
    assert_reports_identical(&unconstrained, &reference_u, "checkpointed unconstrained");
    assert!(dir.join("digital_unconstrained.ckpt").is_file());

    // Second run: resumes from the completed snapshots (pure replay) and
    // still reports identically.
    let resumed = checkpointed.digital_constrained().unwrap();
    assert_reports_identical(&resumed, &reference_c, "resumed constrained");

    // A corrupted snapshot is not an error — the stage falls back to a
    // fresh campaign and overwrites it with a valid one.
    std::fs::write(dir.join("digital_constrained.ckpt"), b"not a checkpoint").unwrap();
    let recovered = checkpointed.digital_constrained().unwrap();
    assert_reports_identical(&recovered, &reference_c, "recovered constrained");
    let snapshot = load_checkpoint(
        &dir.join("digital_constrained.ckpt"),
        checkpointed.circuit().digital(),
        FaultList::collapsed(checkpointed.circuit().digital()).faults(),
    )
    .unwrap();
    assert_eq!(snapshot.outcomes.len(), reference_c.total_faults);
    std::fs::remove_dir_all(&dir).ok();
}

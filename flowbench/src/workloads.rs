//! The three workloads: their inputs, built from the workload seed, one
//! timed iteration of each, and the output checks of every result.
//!
//! Every knob of the measured program is pinned here, never left on an
//! `Auto` value, so ambient `MSATPG_*` variables cannot change what is
//! measured.

use msatpg_analog::filters;
use msatpg_bdd::BddBudget;
use msatpg_conversion::{AllowedCodes, FlashAdc, SarAdc};
use msatpg_core::digital_atpg::AtpgReport;
use msatpg_core::test_plan::ConversionTestEntry;
use msatpg_core::{
    AtpgOptions, ConverterBlock, CoreError, DigitalAtpg, DvoMode, MixedCircuit, MixedSignalAtpg,
    TestPlan,
};
use msatpg_digital::prng::SplitMix64;
use msatpg_digital::{benchmarks, circuits};
use msatpg_digital::{ExecPolicy, FaultList, FaultSimulator, Netlist, SignalId, WordWidth};
use msatpg_exec::WorkerPool;

use crate::check::{fraction, Checker, OpCheck};
use crate::trace::Tracer;

/// PPSFP block width of every digital stage and of the fault grading.
const WIDTH: WordWidth = WordWidth::W1;
/// Variable reordering of every OBDD engine.
const DVO: DvoMode = DvoMode::Never;
/// Resource budget of every OBDD engine.
const BUDGET: BddBudget = BddBudget::UNLIMITED;

/// The ISCAS85 circuits of Table 4, in table order.
const ISCAS: [&str; 5] = ["c432", "c499", "c880", "c1355", "c1908"];
/// Comparators and reference voltage of the Example-3 flash converter.
const EXAMPLE3_COMPARATORS: usize = 15;
const EXAMPLE3_VREF: f64 = 4.0;
/// Constrained-input connections per circuit and run.  Eight keep the
/// spread of `plan_s` across seeds small while one iteration stays near
/// two and a half seconds.
pub const CONNECTIONS_PER_CIRCUIT: usize = 8;
/// The seed draws its connections from `connect_randomly` seeds
/// `0..CONNECTION_POOL`; the reference covers every one of them.
pub const CONNECTION_POOL: usize = 24;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Figure-4 flow (band-pass filter, 2-comparator flash converter,
    /// Figure-3 logic), serial, nominal mode: dominated by the analog
    /// deviation search.
    Fig4Flow,
    /// The digital half of Table 4: constrained and unconstrained campaigns
    /// on c432–c1908 behind the Example-3 converter, serial, no MNA work.
    IscasCampaigns,
    /// The Table-8 validation board, worst-case mode, on 2 pool workers:
    /// the only workload whose pool spawns threads.
    BoardFig8,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Flow,
        Workload::IscasCampaigns,
        Workload::BoardFig8,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Flow => "fig4_flow",
            Workload::IscasCampaigns => "iscas_campaigns",
            Workload::BoardFig8 => "board_fig8_2t",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pool every stage of the workload runs on.
    pub fn pool(self) -> WorkerPool {
        WorkerPool::new(self.exec())
    }

    fn exec(self) -> ExecPolicy {
        match self {
            Workload::BoardFig8 => ExecPolicy::Threads(2),
            _ => ExecPolicy::Serial,
        }
    }

    /// The analog block whose deviation probes the traced run times.
    pub fn probe_filter(self) -> filters::FilterCircuit {
        match self {
            Workload::Fig4Flow => filters::second_order_band_pass(),
            Workload::IscasCampaigns => filters::fifth_order_chebyshev(),
            Workload::BoardFig8 => filters::state_variable_filter(),
        }
    }
}

/// The built inputs of one workload.
pub enum Inputs {
    /// A whole mixed-signal flow.
    Flow(Box<Flow>),
    /// Digital campaigns on the ISCAS circuits.
    Iscas(Vec<IscasCircuit>),
}

/// One mixed circuit run through every stage of the flow.
pub struct Flow {
    scope: &'static str,
    atpg: MixedSignalAtpg,
    faults: FaultList,
}

/// One ISCAS circuit and its constrained-input connections.
pub struct IscasCircuit {
    name: &'static str,
    netlist: Netlist,
    faults: FaultList,
    connections: Vec<Connection>,
}

/// One converter-to-digital connection of an ISCAS circuit.
pub struct Connection {
    /// The `connect_randomly` seed, which is its index in the pool.
    index: usize,
    atpg: MixedSignalAtpg,
    lines: Vec<SignalId>,
    codes: AllowedCodes,
}

/// Quality of one iteration's results (identical across iterations).
#[derive(Default)]
pub struct Quality {
    /// Faults detected by the constrained campaigns.
    pub detected: usize,
    /// Faults targeted by the constrained campaigns.
    pub faults: usize,
    /// Digital vectors of every campaign.
    pub vectors: usize,
    /// Analog elements with a complete test.
    pub analog_tested: usize,
    /// Analog elements analysed.
    pub analog_elements: usize,
}

fn options(worst_case: bool, exec: ExecPolicy) -> AtpgOptions {
    AtpgOptions {
        worst_case,
        exec,
        bdd_budget: BUDGET,
        word_width: WIDTH,
        dvo: DVO,
        ..AtpgOptions::default()
    }
}

/// Builds the inputs of `workload`; the seed selects the ISCAS
/// connections and nothing else.
pub fn setup(workload: Workload, seed: u64) -> Result<Inputs, CoreError> {
    match workload {
        Workload::IscasCampaigns => iscas_inputs(&connection_choice(seed)),
        _ => flow_inputs(workload),
    }
}

/// Builds the inputs of `workload` with every pooled ISCAS connection, as
/// the reference needs.
pub fn setup_all_connections(workload: Workload) -> Result<Inputs, CoreError> {
    match workload {
        Workload::IscasCampaigns => {
            let all: Vec<usize> = (0..CONNECTION_POOL).collect();
            iscas_inputs(&vec![all; ISCAS.len()])
        }
        _ => flow_inputs(workload),
    }
}

fn flow_inputs(workload: Workload) -> Result<Inputs, CoreError> {
    let (scope, mut mixed, worst_case) = match workload {
        Workload::BoardFig8 => {
            let mixed = MixedCircuit::new(
                "figure8-board",
                filters::state_variable_filter(),
                ConverterBlock::Binary {
                    adc: SarAdc::ad7820(),
                    lines: 4,
                },
                circuits::adder4(),
            );
            ("board", mixed, true)
        }
        _ => {
            let adc =
                FlashAdc::uniform(2, 3.0).map_err(|e| CoreError::Conversion(e.to_string()))?;
            let mut mixed = MixedCircuit::new(
                "figure4",
                filters::second_order_band_pass(),
                ConverterBlock::Flash(adc),
                circuits::figure3_circuit(),
            );
            // Example 2: the band-pass output never produces the code (0, 0).
            mixed.set_allowed_codes(AllowedCodes::new(
                2,
                vec![vec![true, false], vec![false, true], vec![true, true]],
            ));
            ("fig4", mixed, false)
        }
    };
    match workload {
        Workload::BoardFig8 => mixed.connect_in_order(&["a0", "a1", "a2", "a3"])?,
        _ => mixed.connect_in_order(&["l0", "l2"])?,
    }
    let faults = FaultList::collapsed(mixed.digital());
    let atpg = MixedSignalAtpg::new(mixed).with_options(options(worst_case, workload.exec()));
    Ok(Inputs::Flow(Box::new(Flow {
        scope,
        atpg,
        faults,
    })))
}

/// Per circuit, `CONNECTIONS_PER_CIRCUIT` distinct pool indices drawn from
/// `seed`.
pub fn connection_choice(seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::new(seed);
    ISCAS
        .iter()
        .map(|_| {
            let mut pool: Vec<usize> = (0..CONNECTION_POOL).collect();
            for i in 0..CONNECTIONS_PER_CIRCUIT {
                let j = i + rng.below(CONNECTION_POOL - i);
                pool.swap(i, j);
            }
            pool.truncate(CONNECTIONS_PER_CIRCUIT);
            pool
        })
        .collect()
}

fn iscas_inputs(choice: &[Vec<usize>]) -> Result<Inputs, CoreError> {
    let mut out = Vec::new();
    for (&name, indices) in ISCAS.iter().zip(choice) {
        let netlist = benchmarks::by_name(name).ok_or_else(|| CoreError::InvalidConnection {
            reason: format!("unknown benchmark circuit {name}"),
        })?;
        let faults = FaultList::collapsed(&netlist);
        let mut connections = Vec::new();
        for &index in indices {
            let adc = FlashAdc::uniform(EXAMPLE3_COMPARATORS, EXAMPLE3_VREF)
                .map_err(|e| CoreError::Conversion(e.to_string()))?;
            let mut mixed = MixedCircuit::new(
                &format!("example3-{name}"),
                filters::fifth_order_chebyshev(),
                ConverterBlock::Flash(adc),
                netlist.clone(),
            );
            mixed.connect_randomly(index as u64)?;
            let lines = mixed.constrained_inputs();
            let codes = mixed.allowed_codes();
            let atpg = MixedSignalAtpg::new(mixed).with_options(options(false, ExecPolicy::Serial));
            connections.push(Connection {
                index,
                atpg,
                lines,
                codes,
            });
        }
        out.push(IscasCircuit {
            name,
            netlist,
            faults,
            connections,
        });
    }
    Ok(Inputs::Iscas(out))
}

/// The constrained-input connections of the inputs, as
/// `(circuit, connection index, constrained lines)`.
#[cfg(test)]
pub fn connections(inputs: &Inputs) -> Vec<(&'static str, usize, Vec<SignalId>)> {
    match inputs {
        Inputs::Flow(_) => Vec::new(),
        Inputs::Iscas(circuits) => circuits
            .iter()
            .flat_map(|c| {
                c.connections
                    .iter()
                    .map(|k| (c.name, k.index, k.lines.clone()))
            })
            .collect(),
    }
}

/// Keeps only the first `circuits` circuits and `connections` connections
/// of each (to keep unit tests short).
#[cfg(test)]
pub fn truncate(inputs: &mut Inputs, circuits: usize, connections: usize) {
    if let Inputs::Iscas(list) = inputs {
        list.truncate(circuits);
        for c in list {
            c.connections.truncate(connections);
        }
    }
}

/// Runs one iteration of the workload and checks every result.
pub fn run_iteration(
    inputs: &Inputs,
    pool: &WorkerPool,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Quality {
    let before = pool.stats();
    let plan = tr.begin_campaign("plan");
    let quality = match inputs {
        Inputs::Flow(flow) => run_flow(flow, pool, tr, checker),
        Inputs::Iscas(circuits) => run_iscas(circuits, pool, tr, checker),
    };
    let after = pool.stats();
    tr.count("exec.pool_spawns", (after.spawns - before.spawns) as f64);
    tr.count("exec.pool_jobs", (after.jobs - before.jobs) as f64);
    tr.count(
        "exec.pool_barriers",
        (after.barriers - before.barriers) as f64,
    );
    tr.end(plan);
    quality
}

fn run_flow(flow: &Flow, pool: &WorkerPool, tr: &mut Tracer, checker: &mut Checker) -> Quality {
    // Untraced, the flow is one `run_on` call; traced, the same stages are
    // called one by one so each gets its own span.
    let plan = if tr.enabled() {
        staged_plan(flow, pool, tr)
    } else {
        flow.atpg.run_on(pool)
    };
    let scope = flow.scope;
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            let failed: Result<(), _> = Err(e);
            for stage in [
                "constrained",
                "unconstrained",
                "deviation",
                "analog",
                "conversion",
            ] {
                checker.finish(&format!("{scope}/{stage}"), &failed, OpCheck::default());
            }
            return Quality::default();
        }
    };
    let netlist = flow.atpg.circuit().digital();
    for (campaign, report) in [
        ("constrained", &plan.digital),
        ("unconstrained", &plan.digital_unconstrained),
    ] {
        let scope = format!("{scope}/{campaign}");
        check_campaign(checker, tr, &scope, netlist, &flow.faults, Ok(report));
    }

    let mut op = OpCheck::default();
    for row in plan.analog_deviations.rows() {
        let key = format!("deviation/{scope}/{}/{}", row.parameter, row.element);
        checker.expect(&mut op, key, fraction(row.detectable_deviation));
    }
    checker.finish(&format!("{scope}/deviation"), &Ok::<(), CoreError>(()), op);

    let mut op = OpCheck::default();
    let tested: Vec<&str> = plan
        .analog
        .iter()
        .filter(|e| e.outcome.is_tested())
        .map(|e| e.element.as_str())
        .collect();
    let value = format!("{} {}", plan.analog.len(), tested.join(","));
    checker.expect(&mut op, format!("analog/{scope}"), value);
    checker.finish(&format!("{scope}/analog"), &Ok::<(), CoreError>(()), op);

    check_conversion(
        checker,
        &format!("{scope}/conversion"),
        &Ok(plan.conversion),
    );

    Quality {
        detected: plan.digital.detected,
        faults: plan.digital.total_faults,
        vectors: plan.digital.vector_count() + plan.digital_unconstrained.vector_count(),
        analog_tested: tested.len(),
        analog_elements: plan.analog.len(),
    }
}

/// The stages of [`MixedSignalAtpg::run_on`], called one by one through
/// public calls, each inside its own span.
fn staged_plan(flow: &Flow, pool: &WorkerPool, tr: &mut Tracer) -> Result<TestPlan, CoreError> {
    let atpg = &flow.atpg;
    let mixed = atpg.circuit();
    mixed.validate()?;
    let (lines, codes) = (mixed.constrained_inputs(), mixed.allowed_codes());
    let netlist = mixed.digital();
    let stage = "core.digital_constrained";
    let digital = digital_campaign(
        tr,
        stage,
        netlist,
        &flow.faults,
        Some((&lines, &codes)),
        pool,
    )?;
    let stage = "core.digital_unconstrained";
    let digital_unconstrained = digital_campaign(tr, stage, netlist, &flow.faults, None, pool)?;

    let span = tr.begin("analog.deviation");
    let analog_deviations = atpg.analog_deviation_report_on(pool);
    if let Ok(report) = &analog_deviations {
        tr.count("analog.deviation_rows", report.rows().len() as f64);
    }
    tr.end(span);
    let analog_deviations = analog_deviations?;

    let span = tr.begin("core.analog_tests");
    let analog = atpg.analog_tests_on(pool, &analog_deviations);
    tr.end(span);

    let span = tr.begin("core.conversion_tests");
    let conversion = atpg.conversion_tests_on(pool);
    tr.end(span);
    Ok(TestPlan {
        digital,
        digital_unconstrained,
        analog: analog?,
        analog_deviations,
        conversion: conversion?,
    })
}

fn run_iscas(
    circuits: &[IscasCircuit],
    pool: &WorkerPool,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Quality {
    let mut quality = Quality::default();
    for circuit in circuits {
        for conn in &circuit.connections {
            let campaign = tr.begin_campaign("campaign");
            let scope = format!("{}/k{}", circuit.name, conn.index);
            let netlist = conn.atpg.circuit().digital();
            let constraint = Some((conn.lines.as_slice(), &conn.codes));
            let stage = "core.digital_constrained";
            let report = digital_campaign(tr, stage, netlist, &circuit.faults, constraint, pool);
            check_campaign(
                checker,
                tr,
                &scope,
                netlist,
                &circuit.faults,
                report.as_ref(),
            );
            if let Ok(report) = &report {
                quality.detected += report.detected;
                quality.faults += report.total_faults;
                quality.vectors += report.vector_count();
            }
            let span = tr.begin("core.conversion_tests");
            let conversion = conn.atpg.conversion_tests_on(pool);
            tr.end(span);
            check_conversion(checker, &format!("{scope}/conversion"), &conversion);
            tr.end(campaign);
        }
        let campaign = tr.begin_campaign("campaign");
        let stage = "core.digital_unconstrained";
        let report = digital_campaign(tr, stage, &circuit.netlist, &circuit.faults, None, pool);
        let scope = format!("{}/unconstrained", circuit.name);
        let report = report.as_ref();
        check_campaign(
            checker,
            tr,
            &scope,
            &circuit.netlist,
            &circuit.faults,
            report,
        );
        if let Ok(report) = &report {
            quality.vectors += report.vector_count();
        }
        tr.end(campaign);
    }
    quality
}

/// One `DigitalAtpg` campaign, configured as the flow configures its
/// digital stages.  Reads the engine's BDD counters after a serial run; a
/// pooled run spreads its BDD work over worker engines the caller cannot
/// see.
fn digital_campaign(
    tr: &mut Tracer,
    stage: &'static str,
    netlist: &Netlist,
    faults: &FaultList,
    constraint: Option<(&[SignalId], &AllowedCodes)>,
    pool: &WorkerPool,
) -> Result<AtpgReport, CoreError> {
    let stage = tr.begin(stage);
    let build = tr.begin("core.atpg_build");
    let atpg = DigitalAtpg::new(netlist)
        .with_budget(BUDGET)
        .with_word_width(WIDTH);
    let atpg = match constraint {
        Some((lines, codes)) => atpg.with_constraints(lines, codes),
        None => Ok(atpg),
    }
    .map(|atpg| atpg.with_dvo(DVO));
    tr.end(build);
    let report = atpg.and_then(|mut atpg| {
        let run = tr.begin("core.atpg_run");
        let report = atpg.run_on(pool, faults);
        if let Ok(r) = &report {
            tr.count("core.faults", r.total_faults as f64);
            tr.count("core.detected", r.detected as f64);
            tr.count("core.untestable", r.untestable_count() as f64);
            tr.count("core.aborted", r.aborted_count() as f64);
            tr.count("core.degraded", r.degraded_count() as f64);
        }
        if pool.policy().is_serial() {
            let stats = atpg.manager().stats();
            tr.count("bdd.peak_live_nodes", stats.peak_live_nodes as f64);
            tr.count("bdd.created_nodes", stats.created_nodes as f64);
            tr.count("bdd.apply_hits", stats.apply_cache.hits as f64);
            tr.count("bdd.apply_lookups", stats.apply_cache.lookups as f64);
            tr.count("bdd.ite_hits", stats.ite_cache.hits as f64);
            tr.count("bdd.ite_lookups", stats.ite_cache.lookups as f64);
            tr.count("bdd.gc_runs", stats.gc_runs as f64);
        }
        tr.end(run);
        report
    });
    tr.end(stage);
    report
}

/// Checks one campaign: its counts against the reference, no aborted
/// fault, and PPSFP grading of its vectors detecting exactly the faults the
/// report counts as detected.
fn check_campaign(
    checker: &mut Checker,
    tr: &mut Tracer,
    scope: &str,
    netlist: &Netlist,
    faults: &FaultList,
    report: Result<&AtpgReport, &CoreError>,
) {
    let mut op = OpCheck::default();
    if let Ok(r) = report {
        let value = format!(
            "{} {} {} {}",
            r.total_faults,
            r.detected,
            r.untestable_count(),
            r.vector_count()
        );
        checker.expect(&mut op, format!("digital/{scope}"), value);
        if r.aborted_count() > 0 {
            op.fail(format!("{} faults aborted", r.aborted_count()));
        }
        let span = tr.begin("digital.grade");
        let patterns: Vec<Vec<bool>> = r.vectors.iter().map(|v| v.concretize(false)).collect();
        let graded = FaultSimulator::new(netlist)
            .with_word_width(WIDTH)
            .with_policy(ExecPolicy::Serial)
            .run(faults, &patterns);
        match graded {
            Ok(graded) => {
                tr.count("digital.graded_patterns", patterns.len() as f64);
                tr.count("digital.graded_detected", graded.detected().len() as f64);
                if graded.detected().len() != r.detected {
                    op.fail(format!(
                        "grading detects {} faults, the report {}",
                        graded.detected().len(),
                        r.detected
                    ));
                }
            }
            Err(e) => op.fail(format!("grading failed: {e}")),
        }
        tr.end(span);
    }
    checker.finish(scope, &report, op);
}

fn check_conversion(
    checker: &mut Checker,
    scope: &str,
    entries: &Result<Vec<ConversionTestEntry>, CoreError>,
) {
    let mut op = OpCheck::default();
    if let Ok(entries) = entries {
        checker.expect(&mut op, scope.to_owned(), entries.len().to_string());
        for e in entries {
            let comparator = e.comparator.map_or("-".to_owned(), |k| k.to_string());
            let value = format!("{comparator} {}", fraction(e.detectable_deviation));
            checker.expect(&mut op, format!("{scope}/R{}", e.resistor), value);
        }
    }
    checker.finish(scope, entries, op);
}

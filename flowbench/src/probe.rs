//! Deviation probes: the unit of work of the analog deviation search,
//! timed one at a time on the benchmark's own MNA engine.
//!
//! A probe deviates one element, measures one parameter and restores the
//! element — exactly what each bracketing and bisection step of the
//! deviation search does.  Probes run only in the traced run, so they add
//! nothing to the untraced `plan_s`.

use std::time::Instant;

use msatpg_analog::mna::{Mna, SolverStats};
use msatpg_analog::params::measure_with_mna;
use msatpg_analog::{AnalogError, FilterCircuit, ParameterKind};

/// Relative element deviation applied by every probe.
const PROBE_DEVIATION: f64 = 0.1;

/// Timings and solver work of the probes of one filter.
#[derive(Default)]
pub struct ProbeStats {
    /// Seconds per probe of a single-frequency gain parameter.
    pub gain_s: Vec<f64>,
    /// Seconds per probe of a peak or cut-off parameter (a search).
    pub search_s: Vec<f64>,
    /// Seconds per linear solve inside each search probe.
    pub solve_s: Vec<f64>,
    /// Solver work of the search probes of the first pass.
    pub search_work: SolverStats,
    /// Search probes in one pass.
    pub search_probes: u64,
}

fn is_search(kind: ParameterKind) -> bool {
    !matches!(kind, ParameterKind::DcGain | ParameterKind::AcGain { .. })
}

/// Probes every (parameter, passive element) pair of `filter`, `passes`
/// times, each pass on a freshly built engine so its solver counts repeat
/// exactly.
pub fn probe_filter(filter: &FilterCircuit, passes: usize) -> Result<ProbeStats, AnalogError> {
    let circuit = filter.circuit();
    let elements = circuit.passive_elements();
    let mut stats = ProbeStats::default();
    for pass in 0..passes {
        let mna = Mna::new(circuit);
        for spec in filter.parameters() {
            let search = is_search(spec.kind);
            for &element in &elements {
                let base = mna.value(element);
                let before = mna.solver_stats();
                let start = Instant::now();
                mna.set_value(element, base * (1.0 + PROBE_DEVIATION));
                let measured = measure_with_mna(&mna, spec);
                mna.set_value(element, base);
                let seconds = start.elapsed().as_secs_f64();
                std::hint::black_box(measured?);
                let after = mna.solver_stats();
                if !search {
                    stats.gain_s.push(seconds);
                    continue;
                }
                stats.search_s.push(seconds);
                let solves = after.solves - before.solves;
                stats.solve_s.push(seconds / solves.max(1) as f64);
                if pass == 0 {
                    stats.search_probes += 1;
                    stats.search_work.solves += solves;
                    stats.search_work.factorizations +=
                        after.factorizations - before.factorizations;
                    stats.search_work.assemblies += after.assemblies - before.assemblies;
                }
            }
        }
    }
    Ok(stats)
}

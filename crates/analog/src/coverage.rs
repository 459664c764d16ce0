//! Bipartite parameter/element coverage graph and test-set selection.
//!
//! The paper (via reference \[8\]) models the "which parameters should be
//! measured" question as a bipartite graph between primary-output parameters
//! and circuit elements, weighted by the detectable element deviation.  The
//! test-set selection picks the smallest set of parameters that covers every
//! coverable element at its best achievable deviation.

use std::collections::BTreeMap;

use crate::sensitivity::DeviationReport;

/// Relative tolerance within which two detectable deviations count as
/// equal.  It is ten times the deviation search's stopping tolerance
/// ([`crate::sensitivity::DEVIATION_TOLERANCE`]), so two rows the search
/// cannot tell apart never order by float noise.
pub const DEVIATION_TIE_TOLERANCE: f64 = 1e-5;

// Ties must be coarser than the noise the search leaves in a deviation.
const _: () = assert!(DEVIATION_TIE_TOLERANCE > crate::sensitivity::DEVIATION_TOLERANCE);

/// `true` when `deviation` ties with (or beats) the smallest deviation
/// `best` under [`DEVIATION_TIE_TOLERANCE`].
fn ties_with(deviation: f64, best: f64) -> bool {
    deviation <= best * (1.0 + DEVIATION_TIE_TOLERANCE)
}

/// Ranks candidate deviations, given in parameter declaration order, from
/// the most to the least sensitive parameter, and returns their indices.
///
/// The tie rule: each rank goes to the first-declared candidate within
/// [`DEVIATION_TIE_TOLERANCE`] of the smallest remaining deviation.  The
/// result is one strict total order of the candidates, which noise below
/// the tolerance cannot change.
///
/// ```
/// use msatpg_analog::coverage::rank_deviations;
///
/// // The last two differ in their last ulps only: declaration order wins.
/// let d = 0.1_f64;
/// assert_eq!(rank_deviations(&[0.3, d, d.next_down()]), vec![1, 2, 0]);
/// ```
pub fn rank_deviations(deviations: &[f64]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..deviations.len()).collect();
    let mut ranking = Vec::with_capacity(deviations.len());
    while let Some(best) = remaining
        .iter()
        .map(|&i| deviations[i])
        .min_by(f64::total_cmp)
    {
        let next = remaining
            .iter()
            .position(|&i| ties_with(deviations[i], best))
            .unwrap_or(0);
        ranking.push(remaining.remove(next));
    }
    ranking
}

/// An edge of the coverage graph: measuring `parameter` detects a deviation
/// of `deviation` (fraction) or more in `element`.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageEdge {
    /// Parameter name.
    pub parameter: String,
    /// Element name.
    pub element: String,
    /// Smallest detectable relative deviation (fraction).
    pub deviation: f64,
}

/// The bipartite coverage graph extracted from a [`DeviationReport`].
#[derive(Clone, Debug, Default)]
pub struct CoverageGraph {
    edges: Vec<CoverageEdge>,
    parameters: Vec<String>,
    elements: Vec<String>,
}

impl CoverageGraph {
    /// Builds the graph from a deviation report, keeping only detectable
    /// pairs.
    pub fn from_report(report: &DeviationReport) -> Self {
        let edges = report
            .rows()
            .iter()
            .filter_map(|r| {
                r.detectable_deviation.map(|d| CoverageEdge {
                    parameter: r.parameter.clone(),
                    element: r.element.clone(),
                    deviation: d,
                })
            })
            .collect();
        CoverageGraph {
            edges,
            parameters: report.parameters().to_vec(),
            elements: report.elements().iter().map(|(_, n)| n.clone()).collect(),
        }
    }

    /// All edges of the graph.
    pub fn edges(&self) -> &[CoverageEdge] {
        &self.edges
    }

    /// All parameter names (including parameters with no edge).
    pub fn parameters(&self) -> &[String] {
        &self.parameters
    }

    /// All element names (including uncoverable elements).
    pub fn elements(&self) -> &[String] {
        &self.elements
    }

    /// Best (smallest) detectable deviation of an element over all
    /// parameters, under the tie rule of [`rank_deviations`].
    pub fn best_deviation(&self, element: &str) -> Option<f64> {
        self.best_parameter(element).map(|(_, d)| d)
    }

    /// The parameter that detects the smallest deviation of an element, and
    /// that deviation.  Deviations within [`DEVIATION_TIE_TOLERANCE`] of
    /// each other tie, and a tie goes to the parameter declared first.
    pub fn best_parameter(&self, element: &str) -> Option<(&str, f64)> {
        let edges: Vec<&CoverageEdge> =
            self.edges.iter().filter(|e| e.element == element).collect();
        let deviations: Vec<f64> = edges.iter().map(|e| e.deviation).collect();
        let best = edges[*rank_deviations(&deviations).first()?];
        Some((best.parameter.as_str(), best.deviation))
    }

    /// Elements with no incident edge: no measured parameter can detect any
    /// deviation in them (up to the analysis search cap).
    pub fn uncoverable_elements(&self) -> Vec<String> {
        self.elements
            .iter()
            .filter(|e| self.best_deviation(e).is_none())
            .cloned()
            .collect()
    }

    /// Greedy test-set selection: repeatedly pick the parameter that covers
    /// the most not-yet-covered elements at their best achievable deviation
    /// (ties broken by total coverage quality), until every coverable element
    /// is covered.
    pub fn select_test_set(&self) -> TestSetSelection {
        // target deviation per element = best over all parameters
        let mut target: BTreeMap<&str, f64> = BTreeMap::new();
        for e in &self.edges {
            let entry = target.entry(e.element.as_str()).or_insert(f64::INFINITY);
            *entry = entry.min(e.deviation);
        }
        let mut uncovered: Vec<&str> = target.keys().copied().collect();
        let mut chosen: Vec<String> = Vec::new();
        while !uncovered.is_empty() {
            let mut best_param: Option<&str> = None;
            let mut best_count = 0usize;
            let mut best_quality = f64::INFINITY;
            for p in &self.parameters {
                // An element is "covered" by p if p achieves (close to) the
                // element's best deviation.
                let covered: Vec<&str> = uncovered
                    .iter()
                    .copied()
                    .filter(|el| {
                        self.edges.iter().any(|e| {
                            e.parameter == *p
                                && e.element == *el
                                && ties_with(e.deviation, target[el])
                        })
                    })
                    .collect();
                let quality: f64 = covered.iter().map(|el| target[el]).sum();
                if covered.len() > best_count
                    || (covered.len() == best_count && covered.len() > 0 && quality < best_quality)
                {
                    best_count = covered.len();
                    best_param = Some(p);
                    best_quality = quality;
                }
            }
            match best_param {
                Some(p) if best_count > 0 => {
                    uncovered.retain(|el| {
                        !self.edges.iter().any(|e| {
                            e.parameter == p
                                && e.element == *el
                                && ties_with(e.deviation, target[el])
                        })
                    });
                    chosen.push(p.to_owned());
                }
                _ => break,
            }
        }
        let element_coverage = self
            .elements
            .iter()
            .map(|el| {
                let d = self
                    .edges
                    .iter()
                    .filter(|e| chosen.contains(&e.parameter) && &e.element == el)
                    .map(|e| e.deviation)
                    .fold(f64::INFINITY, f64::min);
                (el.clone(), if d.is_finite() { Some(d) } else { None })
            })
            .collect();
        TestSetSelection {
            parameters: chosen,
            element_coverage,
        }
    }
}

/// The outcome of test-set selection: the chosen parameters and the
/// per-element coverage they achieve.
#[derive(Clone, Debug, Default)]
pub struct TestSetSelection {
    /// The selected parameters, in selection order.
    pub parameters: Vec<String>,
    /// For each element, the detectable deviation achieved by the selected
    /// parameter set (`None` = uncovered).
    pub element_coverage: Vec<(String, Option<f64>)>,
}

impl TestSetSelection {
    /// Fraction of elements covered by the selection.
    pub fn coverage_ratio(&self) -> f64 {
        if self.element_coverage.is_empty() {
            return 0.0;
        }
        let covered = self
            .element_coverage
            .iter()
            .filter(|(_, d)| d.is_some())
            .count();
        covered as f64 / self.element_coverage.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::params::{ParameterKind, ParameterSpec};
    use crate::sensitivity::WorstCaseAnalysis;

    fn two_stage_divider() -> (Circuit, Vec<ParameterSpec>) {
        // Two independent dividers driven by the same source; parameter A
        // observes the first, parameter B the second.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid_a = c.node("outa");
        let mid_b = c.node("outb");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, mid_a, 1.0e3);
        c.resistor("R2", mid_a, Circuit::GROUND, 1.0e3);
        c.resistor("R3", vin, mid_b, 1.0e3);
        c.resistor("R4", mid_b, Circuit::GROUND, 1.0e3);
        let specs = vec![
            ParameterSpec::new("A", ParameterKind::DcGain, "Vin", "outa"),
            ParameterSpec::new("B", ParameterKind::DcGain, "Vin", "outb"),
        ];
        (c, specs)
    }

    #[test]
    fn selection_needs_both_parameters() {
        let (c, specs) = two_stage_divider();
        let report = WorstCaseAnalysis::new(&c, &specs)
            .with_worst_case(false)
            .run()
            .unwrap();
        let graph = CoverageGraph::from_report(&report);
        assert_eq!(graph.uncoverable_elements().len(), 0);
        let sel = graph.select_test_set();
        assert_eq!(
            sel.parameters.len(),
            2,
            "each output covers its own divider"
        );
        assert!((sel.coverage_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_deviation_is_minimum_over_parameters() {
        let graph = CoverageGraph {
            edges: vec![
                CoverageEdge {
                    parameter: "A".into(),
                    element: "R1".into(),
                    deviation: 0.2,
                },
                CoverageEdge {
                    parameter: "B".into(),
                    element: "R1".into(),
                    deviation: 0.1,
                },
            ],
            parameters: vec!["A".into(), "B".into()],
            elements: vec!["R1".into(), "R9".into()],
        };
        assert_eq!(graph.best_deviation("R1"), Some(0.1));
        assert_eq!(graph.best_deviation("R9"), None);
        assert_eq!(graph.uncoverable_elements(), vec!["R9".to_owned()]);
        let sel = graph.select_test_set();
        assert_eq!(sel.parameters, vec!["B".to_owned()]);
        assert!((sel.coverage_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn near_equal_deviations_tie_to_declaration_order() {
        // Two rows that differ only in their last ulps: the first-declared
        // parameter wins whichever is numerically smaller.
        let d: f64 = 0.052_631_578_947_368;
        for (a, b) in [(d, d.next_down()), (d.next_down(), d), (d, d)] {
            let graph = CoverageGraph {
                edges: vec![
                    CoverageEdge {
                        parameter: "A1".into(),
                        element: "Rg".into(),
                        deviation: a,
                    },
                    CoverageEdge {
                        parameter: "A2".into(),
                        element: "Rg".into(),
                        deviation: b,
                    },
                ],
                parameters: vec!["A1".into(), "A2".into()],
                elements: vec!["Rg".into()],
            };
            assert_eq!(graph.best_parameter("Rg"), Some(("A1", a)));
            assert_eq!(graph.best_deviation("Rg"), Some(a));
            assert_eq!(rank_deviations(&[a, b]), vec![0, 1]);
        }
        // Outside the tolerance the smaller deviation wins.
        let far = d * (1.0 + 10.0 * DEVIATION_TIE_TOLERANCE);
        assert_eq!(rank_deviations(&[far, d]), vec![1, 0]);
    }

    #[test]
    fn ranking_is_a_permutation_in_a_consistent_order() {
        // A chain of pairwise ties: every index appears once, and each rank
        // is the first-declared candidate tied with the remaining minimum.
        let step = 1.0 + 0.6 * DEVIATION_TIE_TOLERANCE;
        let chain = [0.1 * step * step, 0.1 * step, 0.1, 0.5, f64::NAN];
        assert_eq!(rank_deviations(&chain), vec![1, 2, 0, 3, 4]);
        assert_eq!(rank_deviations(&[]), Vec::<usize>::new());
    }

    #[test]
    fn empty_graph_selects_nothing() {
        let graph = CoverageGraph::default();
        let sel = graph.select_test_set();
        assert!(sel.parameters.is_empty());
        assert_eq!(sel.coverage_ratio(), 0.0);
    }
}

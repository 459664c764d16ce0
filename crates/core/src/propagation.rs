//! Propagation of a composite value (`D`/`D̄`) from a conversion-block
//! output through the digital block to a primary output (§2.3, Figure 6).
//!
//! The digital inputs driven by the conversion block are not free: under the
//! chosen analog stimulus they carry fixed logic values, except the one
//! comparator whose output differs between the fault-free and the faulty
//! circuit, which carries `D` or `D̄`.  The engine builds the OBDD of every
//! primary output over the *external* primary inputs plus the composite
//! variable `D` (last in the ordering) and looks for an external-input
//! assignment under which the output depends on `D`.

use std::collections::HashMap;

use msatpg_bdd::{Bdd, BddManager, Cube, VarId};
use msatpg_digital::logic::Logic;
use msatpg_digital::netlist::{Netlist, SignalId};
use msatpg_digital::sim::CompositeSimulator;

use crate::digital_atpg::apply_gate;
use crate::ordering::DvoMode;
use crate::CoreError;

/// The name of the composite variable (kept last in the ordering).
const D_VAR_NAME: &str = "__D";

/// Live-node watermark above which the engine sweeps the per-call manager
/// once the output functions are built: every interior signal function is
/// garbage at that point, only the primary-output BDDs (registered as GC
/// roots) carry forward into the Boolean-difference search.
const GC_WATERMARK: usize = 1 << 12;

/// The result of a successful propagation search.
#[derive(Clone, Debug, PartialEq)]
pub struct PropagationResult {
    /// Index (in primary-output order) of the output where the composite
    /// value is observed.
    pub observed_output: usize,
    /// Required values of the external (unconstrained) primary inputs;
    /// `None` = don't-care.
    pub external_assignment: Vec<(SignalId, Option<bool>)>,
    /// The composite value observed at the output.
    pub observed_value: Logic,
}

/// OBDD-based propagation engine bound to one digital netlist.
pub struct PropagationEngine<'a> {
    netlist: &'a Netlist,
    dvo: DvoMode,
}

impl<'a> PropagationEngine<'a> {
    /// Creates a propagation engine (declaration input order, no dynamic
    /// reordering; see [`Self::with_dvo`]).
    pub fn new(netlist: &'a Netlist) -> Self {
        PropagationEngine {
            netlist,
            dvo: DvoMode::Never,
        }
    }

    /// Sets the dynamic-variable-ordering mode applied once per search,
    /// right after the output functions are built (see [`DvoMode`]).
    pub fn with_dvo(mut self, dvo: DvoMode) -> Self {
        self.dvo = dvo;
        self
    }

    /// Searches for an assignment to the external primary inputs that
    /// propagates the composite value to some primary output.
    ///
    /// `fixed` gives the logic value of every constrained input (the values
    /// the conversion block produces under the chosen stimulus in the
    /// fault-free circuit); `composite_line` is the constrained input whose
    /// value differs in the faulty circuit and `composite` is that value
    /// (`D` or `D̄`).
    ///
    /// Returns `Ok(None)` when no assignment propagates the fault.
    ///
    /// # Errors
    ///
    /// Returns an error if `composite` is not a fault effect or a fixed value
    /// is not a constant.
    pub fn find_propagating_assignment(
        &self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<Option<PropagationResult>, CoreError> {
        let (mut manager, outputs, d_var) =
            self.build_output_functions(fixed, composite_line, composite)?;
        for (po_index, &f) in outputs.iter().enumerate() {
            // The fault is observable at this output iff the output depends
            // on D for some external-input assignment.
            let diff = manager.boolean_difference(f, d_var);
            if diff.is_zero() {
                continue;
            }
            let cube = manager.sat_one(diff).expect("non-zero BDD is satisfiable");
            let result =
                self.result_from_cube(&manager, &cube, po_index, fixed, composite_line, composite)?;
            return Ok(Some(result));
        }
        Ok(None)
    }

    /// Builds the OBDDs of every primary output over the external inputs
    /// plus the composite variable `D` (declared last), registers them as
    /// GC roots and sweeps the interior signal functions the build left
    /// behind.  Shared by the single-output and the all-outputs searches.
    pub(crate) fn build_output_functions(
        &self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<(BddManager, Vec<Bdd>, VarId), CoreError> {
        if !composite.is_fault_effect() {
            return Err(CoreError::Propagation {
                reason: format!("composite value must be D or D', got {composite}"),
            });
        }
        let mut manager = BddManager::new();
        // External inputs first (in declaration order), D last.
        let mut values: Vec<Option<Bdd>> = vec![None; self.netlist.signal_count()];
        for &pi in self.netlist.primary_inputs() {
            if pi == composite_line {
                continue;
            }
            if let Some(&v) = fixed.get(&pi) {
                values[pi.index()] = Some(manager.constant(v));
            } else {
                let literal = manager.var(self.netlist.signal_name(pi));
                values[pi.index()] = Some(literal);
            }
        }
        let d_var = manager.var_id(D_VAR_NAME);
        // The composite line is represented by the variable D for `D` and by
        // ¬D for `D̄`, so that D = 1 always means "the good-circuit value".
        // With complement edges the negation shares the literal's node.
        let d_literal = manager.literal(d_var, true);
        values[composite_line.index()] = Some(match composite {
            Logic::D => d_literal,
            _ => manager.not(d_literal),
        });
        for gate in self.netlist.gates() {
            let inputs: Vec<Bdd> = gate
                .inputs
                .iter()
                .map(|i| values[i.index()].expect("topological order guarantees availability"))
                .collect();
            let out = apply_gate(&mut manager, gate.kind, &inputs);
            if values[gate.output.index()].is_none() {
                values[gate.output.index()] = Some(out);
            }
        }
        let outputs: Vec<Bdd> = self
            .netlist
            .primary_outputs()
            .iter()
            .map(|&po| values[po.index()].expect("all signals computed"))
            .collect();
        // Only the output functions carry forward; reclaim the interior of
        // the netlist build before the Boolean-difference search fans out.
        for &f in &outputs {
            manager.protect(f);
        }
        manager.gc_if_above(GC_WATERMARK);
        // Deterministic reordering safe point: only the protected output
        // functions survive into the Boolean-difference search, so a sift
        // here shrinks exactly what that search will traverse.
        if self.dvo.is_active() {
            let _ = manager.try_sift_until_convergence();
        }
        Ok((manager, outputs, d_var))
    }

    /// Lists, for each primary output, whether the composite value can be
    /// propagated to it (used for the "propagation through comparators"
    /// study of Table 5).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::find_propagating_assignment`].
    pub fn reachable_outputs(
        &self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<Vec<bool>, CoreError> {
        let mut reachable = Vec::new();
        for po_index in 0..self.netlist.primary_outputs().len() {
            let single =
                self.find_propagating_assignment_to(fixed, composite_line, composite, po_index)?;
            reachable.push(single.is_some());
        }
        Ok(reachable)
    }

    fn find_propagating_assignment_to(
        &self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
        target_output: usize,
    ) -> Result<Option<PropagationResult>, CoreError> {
        // Reuse the general search but mask every other output by checking
        // only the requested one.
        let all = self.find_all(fixed, composite_line, composite)?;
        Ok(all.into_iter().find(|r| r.observed_output == target_output))
    }

    fn find_all(
        &self,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<Vec<PropagationResult>, CoreError> {
        let (mut manager, outputs, d_var) =
            self.build_output_functions(fixed, composite_line, composite)?;
        let mut results = Vec::new();
        for (po_index, &f) in outputs.iter().enumerate() {
            let diff = manager.boolean_difference(f, d_var);
            if diff.is_zero() {
                continue;
            }
            let cube = manager.sat_one(diff).expect("non-zero BDD is satisfiable");
            results.push(self.result_from_cube(
                &manager,
                &cube,
                po_index,
                fixed,
                composite_line,
                composite,
            )?);
        }
        Ok(results)
    }

    fn result_from_cube(
        &self,
        manager: &BddManager,
        cube: &Cube,
        po_index: usize,
        fixed: &HashMap<SignalId, bool>,
        composite_line: SignalId,
        composite: Logic,
    ) -> Result<PropagationResult, CoreError> {
        let external_assignment: Vec<(SignalId, Option<bool>)> = self
            .netlist
            .primary_inputs()
            .iter()
            .copied()
            .filter(|&pi| pi != composite_line && !fixed.contains_key(&pi))
            .map(|pi| {
                let value = manager
                    .var_index(self.netlist.signal_name(pi))
                    .and_then(|v| cube.get(v));
                (pi, value)
            })
            .collect();
        // Cross-check with the five-valued simulator and read the composite
        // value actually observed at the output.
        let mut sim = CompositeSimulator::new(self.netlist);
        sim.force(composite_line, composite);
        let inputs: Vec<Logic> = self
            .netlist
            .primary_inputs()
            .iter()
            .map(|&pi| {
                if pi == composite_line {
                    Logic::X // overridden by force()
                } else if let Some(&v) = fixed.get(&pi) {
                    Logic::from(v)
                } else {
                    external_assignment
                        .iter()
                        .find(|(s, _)| *s == pi)
                        .and_then(|(_, v)| *v)
                        .map(Logic::from)
                        .unwrap_or(Logic::Zero)
                }
            })
            .collect();
        let outputs = sim
            .run_outputs(&inputs)
            .map_err(|e| CoreError::Digital(e.to_string()))?;
        let observed_value = outputs[po_index];
        if !observed_value.is_fault_effect() {
            return Err(CoreError::Propagation {
                reason: format!(
                    "BDD search claimed propagation to output {po_index} but simulation observes {observed_value}"
                ),
            });
        }
        Ok(PropagationResult {
            observed_output: po_index,
            external_assignment,
            observed_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_digital::circuits;

    /// The paper's Figure-6 scenario: l0 = D, l2 = D̄ is not representable
    /// with a single composite line, so we reproduce the simpler case the
    /// text walks through: a D appears on l2 (through the comparator Co1)
    /// while l0 keeps its fault-free value, and the external inputs l1, l4
    /// must be chosen to propagate it.
    #[test]
    fn figure6_propagation_to_both_outputs() {
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let engine = PropagationEngine::new(&circuit);
        let mut fixed = HashMap::new();
        fixed.insert(l0, true); // comparator Co? keeps l0 = 1
        let result = engine
            .find_propagating_assignment(&fixed, l2, Logic::D)
            .unwrap()
            .expect("the fault effect must reach an output");
        assert!(result.observed_value.is_fault_effect());
        // With l0 = 1, l6 = 1 and Vo1 = l7 = l1 + D... propagation to Vo1
        // requires l1 = 0; Vo2 = l6·l4 never sees the effect; so observation
        // happens at output 0 (Vo1).
        assert_eq!(result.observed_output, 0);
        let l1 = circuit.find_signal("l1").unwrap();
        let l1_value = result
            .external_assignment
            .iter()
            .find(|(s, _)| *s == l1)
            .unwrap()
            .1;
        assert_eq!(l1_value, Some(false));
    }

    #[test]
    fn propagation_blocked_by_fixed_values() {
        // With l0 forced to 0 the OR gate l6 = l0 + l3 passes l3 = l2 and the
        // composite on l2 reaches both outputs through l6; but if the fixed
        // comparator values force l0 = 0 AND the composite is on l0 instead,
        // masking can occur.  Exercise a masked case: composite on l2 with
        // l0 = 0 → l6 = D(l2-path), Vo2 = l6 · l4 needs l4 = 1.
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let engine = PropagationEngine::new(&circuit);
        let mut fixed = HashMap::new();
        fixed.insert(l0, false);
        let reachable = engine.reachable_outputs(&fixed, l2, Logic::D).unwrap();
        assert_eq!(reachable, vec![true, true], "both outputs reachable");

        // Now force l0 = 1: l6 is stuck at 1, Vo2 = l4 is fault-free, and
        // only Vo1 (through l7) can observe the composite.
        let mut fixed2 = HashMap::new();
        fixed2.insert(l0, true);
        let reachable2 = engine.reachable_outputs(&fixed2, l2, Logic::D).unwrap();
        assert_eq!(reachable2, vec![true, false]);
    }

    #[test]
    fn dbar_composite_is_supported() {
        let circuit = circuits::figure3_circuit();
        let l0 = circuit.find_signal("l0").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let engine = PropagationEngine::new(&circuit);
        let mut fixed = HashMap::new();
        fixed.insert(l0, true);
        let result = engine
            .find_propagating_assignment(&fixed, l2, Logic::Dbar)
            .unwrap()
            .expect("D' propagates the same way");
        assert!(result.observed_value.is_fault_effect());
    }

    #[test]
    fn non_composite_value_is_rejected() {
        let circuit = circuits::figure3_circuit();
        let l2 = circuit.find_signal("l2").unwrap();
        let engine = PropagationEngine::new(&circuit);
        let err = engine
            .find_propagating_assignment(&HashMap::new(), l2, Logic::One)
            .unwrap_err();
        assert!(matches!(err, CoreError::Propagation { .. }));
    }

    #[test]
    fn unpropagatable_effect_returns_none() {
        // Force every other input so that both outputs are insensitive to
        // the composite line: l0 = 1 makes l6 = 1, and the composite sits on
        // l4's partner... use composite on l4 path: force l6 path... Build
        // the blocked case directly: composite on l1 with l2 = 1 forces
        // l7 = 1, so Vo1 is insensitive to l1 and Vo2 never depends on l1.
        let circuit = circuits::figure3_circuit();
        let l1 = circuit.find_signal("l1").unwrap();
        let l2 = circuit.find_signal("l2").unwrap();
        let engine = PropagationEngine::new(&circuit);
        let mut fixed = HashMap::new();
        fixed.insert(l2, true);
        let result = engine
            .find_propagating_assignment(&fixed, l1, Logic::D)
            .unwrap();
        assert!(result.is_none(), "l7 = l1 + 1 masks the composite");
    }
}

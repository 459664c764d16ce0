//! Modified nodal analysis (MNA): DC and AC small-signal solutions.
//!
//! ## Engine layout
//!
//! Every stamp of the MNA system is linear in the complex frequency, so the
//! engine splits the system as `A(s) = G + s·C` with **real** matrices `G`
//! and `C`.  [`Mna::new`] walks the circuit **once**, recording for every
//! element the list of `(matrix, row, col, coefficient)` entries it
//! contributes — the *structural stamp pattern* — and assembles `G` and `C`
//! from it.  After that:
//!
//! * a solve at frequency `f` assembles `A = G + j·2πf·C` into a cached
//!   per-frequency system, LU-factors it once ([`crate::matrix::LuFactor`],
//!   storage reused), and answers any number of right-hand sides (drives)
//!   against the same factorization — repeated sweeps over the same grid
//!   (peak search, −3 dB bisection) hit the cache and skip both assembly and
//!   factorization;
//! * a **deviation probe** ([`Mna::probe`]) evaluates the circuit with one
//!   element at another value without touching the engine.  The
//!   value-dependent stamps of every element form a rank-one matrix
//!   `u·vᵀ`, so the probed system is `A + δ·u·vᵀ` and its solution is a
//!   Sherman–Morrison update of the cached factorization of `A`:
//!   `x' = x − δ·(vᵀx)/(1 + δ·vᵀz)·z` with `x = A⁻¹b` and `z = A⁻¹u`.
//!   Both vectors are cached per frequency (`x` per drive, `z` per probed
//!   element), so a probe solve at a warm frequency is a few scalar
//!   operations, no cached factorization is ever invalidated, and a probe's
//!   result does not depend on what the engine solved before it;
//! * a persistent parameter deviation ([`Mna::set_value`] /
//!   [`Mna::scale_value`]) patches only the few `G`/`C` entries its element
//!   touches instead of re-stamping the whole matrix, and marks the cached
//!   factorizations stale; each is re-assembled from the patched `G`/`C`
//!   and refactored on its next use.
//!
//! The single-pole op-amp model `A(s) = a0/(1 + s/ω)` is folded into the
//! `G + s·C` form by multiplying its constraint row through by the
//! denominator, which leaves the solution unchanged.
//!
//! Voltage sources, VCVSs, op-amps and inductors contribute branch-current
//! unknowns.

use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::TAU;

use crate::complex::Complex;
use crate::matrix::LuFactor;
use crate::netlist::{Circuit, ElementId, ElementKind, NodeId, OpAmpModel};
use crate::AnalogError;

/// The result of one MNA solve: node voltages and source/branch currents.
#[derive(Clone, Debug)]
pub struct Solution {
    voltages: Vec<Complex>,
    branch_currents: HashMap<ElementId, Complex>,
}

impl Solution {
    /// Complex voltage at `node` (ground reads as exactly zero).
    pub fn voltage(&self, node: NodeId) -> Complex {
        self.voltages[node.index()]
    }

    /// Voltage difference `V(a) − V(b)`.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> Complex {
        self.voltage(a) - self.voltage(b)
    }

    /// Branch current of an element that carries a current unknown (voltage
    /// sources, VCVS, op-amps, inductors), if present.
    pub fn branch_current(&self, element: ElementId) -> Option<Complex> {
        self.branch_currents.get(&element).copied()
    }
}

/// Counters exposing how much work the sweep-reuse machinery avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total linear solves performed.
    pub solves: u64,
    /// Full `G + sC` assemblies (one per distinct frequency since the last
    /// cache clear; everything else was served from the system cache).
    pub assemblies: u64,
    /// LU factorizations performed (re-done after a value patch, reused for
    /// repeated solves at an unchanged frequency).
    pub factorizations: u64,
    /// Element-value patches applied.
    pub patches: u64,
    /// Solves answered by a rank-one (Sherman–Morrison) update inside a
    /// [`Mna::probe`]; each is also counted in `solves`.
    pub rank_one_solves: u64,
}

/// Which of the two real matrices an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Target {
    G,
    C,
}

/// How a stamp entry's numeric contribution derives from the element value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dep {
    /// `factor` (independent of the element value).
    Const,
    /// `factor · value` (capacitors, inductor impedance, gains).
    Value,
    /// `factor / value` (resistor conductance).
    Inverse,
}

/// One `(matrix, row, col)` entry of an element's structural stamp pattern.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    target: Target,
    row: u32,
    col: u32,
    factor: f64,
    dep: Dep,
}

impl Stamp {
    #[inline]
    fn contribution(&self, value: f64) -> f64 {
        match self.dep {
            Dep::Const => self.factor,
            Dep::Value => self.factor * value,
            Dep::Inverse => self.factor / value,
        }
    }
}

/// How an independent source contributes to the right-hand side.
#[derive(Clone, Copy, Debug)]
enum RhsStamp {
    /// Voltage source: `b[row] = value`.
    Branch { row: u32 },
    /// Current source: `b[plus] -= value`, `b[minus] += value`.
    Nodal {
        plus: Option<u32>,
        minus: Option<u32>,
    },
}

/// The value-dependent stamps of one element as a rank-one matrix: a value
/// change multiplies `u·vᵀ` by the change of the stamp coefficient (`Δvalue`
/// for [`Dep::Value`], `Δ(1/value)` for [`Dep::Inverse`]), in `G` or in `C`.
#[derive(Clone, Debug)]
struct RankOne {
    target: Target,
    dep: Dep,
    /// Sparse `(row, coefficient)` entries of `u`.
    u: Vec<(usize, f64)>,
    /// Sparse `(col, coefficient)` entries of `v`.
    v: Vec<(usize, f64)>,
}

impl RankOne {
    /// Factors the value-dependent part of a stamp pattern as `u·vᵀ`, or
    /// `None` when the element's value does not enter the matrix (sources,
    /// ideal op-amps, stamps that cancel).
    fn from_stamps(stamps: &[Stamp]) -> Option<RankOne> {
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for stamp in stamps.iter().filter(|s| s.dep != Dep::Const) {
            let (row, col) = (stamp.row as usize, stamp.col as usize);
            match entries.iter_mut().find(|e| e.0 == row && e.1 == col) {
                Some(entry) => entry.2 += stamp.factor,
                None => entries.push((row, col, stamp.factor)),
            }
        }
        entries.retain(|e| e.2 != 0.0);
        let &(row0, col0, pivot) = entries.first()?;
        let first = stamps.iter().find(|s| s.dep != Dep::Const)?;
        let entry = |row: usize, col: usize| -> f64 {
            entries
                .iter()
                .find(|e| e.0 == row && e.1 == col)
                .map_or(0.0, |e| e.2)
        };
        let mut rows: Vec<usize> = entries.iter().map(|e| e.0).collect();
        let mut cols: Vec<usize> = entries.iter().map(|e| e.1).collect();
        rows.sort_unstable();
        rows.dedup();
        cols.sort_unstable();
        cols.dedup();
        // Column `col0` of the pattern times row `row0` over the pivot.
        let u: Vec<(usize, f64)> = rows.iter().map(|&r| (r, entry(r, col0))).collect();
        let v: Vec<(usize, f64)> = cols.iter().map(|&c| (c, entry(row0, c) / pivot)).collect();
        debug_assert!(
            stamps
                .iter()
                .filter(|s| s.dep != Dep::Const)
                .all(|s| s.target == first.target && s.dep == first.dep),
            "an element's value-dependent stamps share one matrix and one dependence"
        );
        debug_assert!(
            u.iter()
                .all(|&(r, ur)| v.iter().all(|&(c, vc)| ur * vc == entry(r, c))),
            "value-dependent stamps must form a rank-one pattern"
        );
        Some(RankOne {
            target: first.target,
            dep: first.dep,
            u,
            v,
        })
    }
}

/// The right-hand side of a solve, with the driving source resolved to its
/// element id (so a solve compares ids, not names).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rhs {
    AllDc,
    AllAc,
    Single { source: ElementId, magnitude: f64 },
}

/// An element evaluated at another value by [`Mna::probe`].
#[derive(Clone, Copy, Debug)]
struct Probe {
    element: usize,
    value: f64,
}

/// The factorization of `G + s·C` at one frequency; `lu.is_factored()`
/// says whether it still matches the engine's current `G` and `C`.
struct CachedSystem {
    /// `f64::to_bits` of the system's frequency.
    key: u64,
    lu: LuFactor,
    /// The solution `A⁻¹b` of the most recent right-hand side.
    solution: Option<(Rhs, Vec<Complex>)>,
    /// `A⁻¹u` of the most recently probed element (by element index).
    column: Option<(usize, Vec<Complex>)>,
}

impl CachedSystem {
    /// Marks the factorization, and every solution derived from it, stale.
    fn invalidate(&mut self) {
        self.lu.invalidate();
        self.solution = None;
        self.column = None;
    }
}

/// Bound on the number of per-frequency systems kept alive.  When a new
/// frequency arrives at capacity, the least-recently-used system is evicted
/// and its storage reused — a deviation search keeps its sweep grid warm
/// while the one-off frequencies of its refinements come and go, and memory
/// stays bounded.
const MAX_CACHED_SYSTEMS: usize = 512;

struct Engine {
    /// Real part (conductance) matrix, row-major `n × n`.
    g: Vec<f64>,
    /// Frequency-proportional (susceptance) matrix, row-major `n × n`.
    c: Vec<f64>,
    /// Current (possibly patched) scalar value per element.
    values: Vec<f64>,
    /// Nominal values from the circuit, for [`Mna::reset_values`].
    nominal: Vec<f64>,
    /// Per-frequency systems, at most [`MAX_CACHED_SYSTEMS`].
    systems: Vec<CachedSystem>,
    /// `f64::to_bits(freq_hz)` → index into `systems`.
    slots: HashMap<u64, usize>,
    /// Engine tick of the most recent solve with each system, parallel to
    /// `systems` and dense so the LRU scan stays cheap.
    last_used: Vec<u64>,
    /// Reusable right-hand-side / solution buffer.
    rhs: Vec<Complex>,
    /// Reusable `n × n` buffer `G + s·C` is assembled into before it is
    /// factored.
    assembly: Vec<Complex>,
    /// Monotone solve counter used as the LRU clock of `systems`.
    tick: u64,
    stats: SolverStats,
    /// The element value [`Mna::probe`] currently evaluates, if any.
    probe: Option<Probe>,
}

impl Engine {
    /// Adds an unfactored system for the frequency `key` and returns its
    /// index.  At capacity the least-recently-used system is evicted —
    /// never wholesale, so a search oscillating over a fine grid keeps its
    /// warm working set — and its storage reused.
    fn insert_system(&mut self, key: u64, n: usize) -> usize {
        let slot = if self.systems.len() < MAX_CACHED_SYSTEMS {
            self.systems.push(CachedSystem {
                key,
                lu: LuFactor::new(n),
                solution: None,
                column: None,
            });
            self.last_used.push(0);
            self.systems.len() - 1
        } else {
            let coldest = (0..self.last_used.len())
                .min_by_key(|&i| self.last_used[i])
                .unwrap_or(0);
            let system = &mut self.systems[coldest];
            self.slots.remove(&system.key);
            system.key = key;
            system.invalidate();
            coldest
        };
        self.slots.insert(key, slot);
        slot
    }

    /// Stamps `G` and `C` from scratch: every element's pattern at its
    /// current value, summed in element order (the order
    /// [`Mna::set_value`] re-sums a patched entry in).
    fn restamp(&mut self, element_stamps: &[Vec<Stamp>], n: usize) {
        self.g.fill(0.0);
        self.c.fill(0.0);
        for (stamps, &value) in element_stamps.iter().zip(&self.values) {
            for stamp in stamps {
                let slot = stamp.row as usize * n + stamp.col as usize;
                match stamp.target {
                    Target::G => self.g[slot] += stamp.contribution(value),
                    Target::C => self.c[slot] += stamp.contribution(value),
                }
            }
        }
    }

    fn clear_systems(&mut self) {
        self.systems.clear();
        self.slots.clear();
        self.last_used.clear();
    }
}

/// The MNA engine bound to one circuit.
///
/// # Example
///
/// ```
/// use msatpg_analog::netlist::Circuit;
/// use msatpg_analog::mna::Mna;
///
/// // A simple RC low-pass: fc = 1/(2π·RC) ≈ 1.59 kHz
/// let mut c = Circuit::new();
/// let vin = c.node("vin");
/// let vout = c.node("vout");
/// c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
/// c.resistor("R", vin, vout, 1.0e3);
/// let cap = c.capacitor("C", vout, Circuit::GROUND, 100.0e-9);
/// let mna = Mna::new(&c);
/// let dc = mna.solve_dc().unwrap();
/// assert!((dc.voltage(vout).abs() - 0.0).abs() < 1e-9); // DC value of source is 0
/// let ac = mna.solve_ac(1.0).unwrap();
/// assert!((ac.voltage(vout).abs() - 1.0).abs() < 1e-3); // passband
/// // Parameter deviations patch the stamped system instead of rebuilding it:
/// mna.scale_value(cap, 10.0);
/// let shifted = mna.solve_ac(1.0e4).unwrap();
/// mna.reset_values();
/// assert!(shifted.voltage(vout).abs() < mna.solve_ac(1.0e4).unwrap().voltage(vout).abs());
/// ```
pub struct Mna<'a> {
    circuit: &'a Circuit,
    /// Elements that contribute a branch-current unknown, in matrix order.
    branch_elements: Vec<ElementId>,
    /// Number of non-ground node unknowns.
    n_nodes: usize,
    /// Total unknowns.
    n: usize,
    /// Structural stamp pattern, indexed by element id.
    element_stamps: Vec<Vec<Stamp>>,
    /// Rank-one form of each element's value-dependent stamps, indexed by
    /// element id.
    rank_one: Vec<Option<RankOne>>,
    /// Right-hand-side pattern: `(element, stamp, dc_value)` per source.
    rhs_stamps: Vec<(ElementId, RhsStamp, f64)>,
    engine: RefCell<Engine>,
}

impl<'a> Mna<'a> {
    /// Prepares the MNA engine for `circuit`: derives the structural stamp
    /// pattern of every element and assembles the real `G` and `C` matrices
    /// once.
    pub fn new(circuit: &'a Circuit) -> Self {
        let branch_elements: Vec<ElementId> = circuit
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.kind,
                    ElementKind::VoltageSource { .. }
                        | ElementKind::Vcvs { .. }
                        | ElementKind::OpAmp { .. }
                        | ElementKind::Inductor { .. }
                )
            })
            .map(|(id, _)| id)
            .collect();
        let n_nodes = circuit.node_count() - 1; // excluding ground
        let n = n_nodes + branch_elements.len();

        // Map: node -> row/column (ground maps to None).
        let row = |node: NodeId| -> Option<u32> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() as u32 - 1)
            }
        };
        let branch_row: HashMap<ElementId, u32> = branch_elements
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (n_nodes + i) as u32))
            .collect();

        let mut element_stamps: Vec<Vec<Stamp>> = Vec::with_capacity(circuit.element_count());
        let mut rhs_stamps = Vec::new();
        for (id, e) in circuit.iter() {
            let mut stamps = Vec::new();
            // Conductance-style two-terminal pattern: ±y at (i,i), (j,j),
            // (i,j), (j,i).
            let admittance = |stamps: &mut Vec<Stamp>, target: Target, dep: Dep| {
                let (na, nb) = (row(e.nodes[0]), row(e.nodes[1]));
                if let Some(i) = na {
                    stamps.push(Stamp {
                        target,
                        row: i,
                        col: i,
                        factor: 1.0,
                        dep,
                    });
                    if let Some(j) = nb {
                        stamps.push(Stamp {
                            target,
                            row: i,
                            col: j,
                            factor: -1.0,
                            dep,
                        });
                    }
                }
                if let Some(j) = nb {
                    stamps.push(Stamp {
                        target,
                        row: j,
                        col: j,
                        factor: 1.0,
                        dep,
                    });
                    if let Some(i) = na {
                        stamps.push(Stamp {
                            target,
                            row: j,
                            col: i,
                            factor: -1.0,
                            dep,
                        });
                    }
                }
            };
            // Branch-voltage coupling pattern: ±1 at (i,k), (k,i), (j,k), (k,j).
            let branch_coupling = |stamps: &mut Vec<Stamp>, k: u32, np: NodeId, nn: NodeId| {
                if let Some(i) = row(np) {
                    stamps.push(Stamp {
                        target: Target::G,
                        row: i,
                        col: k,
                        factor: 1.0,
                        dep: Dep::Const,
                    });
                    stamps.push(Stamp {
                        target: Target::G,
                        row: k,
                        col: i,
                        factor: 1.0,
                        dep: Dep::Const,
                    });
                }
                if let Some(j) = row(nn) {
                    stamps.push(Stamp {
                        target: Target::G,
                        row: j,
                        col: k,
                        factor: -1.0,
                        dep: Dep::Const,
                    });
                    stamps.push(Stamp {
                        target: Target::G,
                        row: k,
                        col: j,
                        factor: -1.0,
                        dep: Dep::Const,
                    });
                }
            };
            match e.kind {
                ElementKind::Resistor { .. } => {
                    admittance(&mut stamps, Target::G, Dep::Inverse);
                }
                ElementKind::Capacitor { .. } => {
                    admittance(&mut stamps, Target::C, Dep::Value);
                }
                ElementKind::Inductor { .. } => {
                    // Branch formulation: V(a) − V(b) − s·L·I = 0
                    let k = branch_row[&id];
                    branch_coupling(&mut stamps, k, e.nodes[0], e.nodes[1]);
                    stamps.push(Stamp {
                        target: Target::C,
                        row: k,
                        col: k,
                        factor: -1.0,
                        dep: Dep::Value,
                    });
                }
                ElementKind::VoltageSource { dc, .. } => {
                    let k = branch_row[&id];
                    branch_coupling(&mut stamps, k, e.nodes[0], e.nodes[1]);
                    rhs_stamps.push((id, RhsStamp::Branch { row: k }, dc));
                }
                ElementKind::CurrentSource { dc, .. } => {
                    rhs_stamps.push((
                        id,
                        RhsStamp::Nodal {
                            plus: row(e.nodes[0]),
                            minus: row(e.nodes[1]),
                        },
                        dc,
                    ));
                }
                ElementKind::Vcvs { .. } => {
                    // V(p) − V(n) − gain·(V(cp) − V(cn)) = 0
                    let k = branch_row[&id];
                    branch_coupling(&mut stamps, k, e.nodes[0], e.nodes[1]);
                    if let Some(i) = row(e.nodes[2]) {
                        stamps.push(Stamp {
                            target: Target::G,
                            row: k,
                            col: i,
                            factor: -1.0,
                            dep: Dep::Value,
                        });
                    }
                    if let Some(j) = row(e.nodes[3]) {
                        stamps.push(Stamp {
                            target: Target::G,
                            row: k,
                            col: j,
                            factor: 1.0,
                            dep: Dep::Value,
                        });
                    }
                }
                ElementKind::OpAmp { model } => {
                    // Output current is the branch unknown, injected at `out`.
                    let k = branch_row[&id];
                    let (inp, inn, out) = (e.nodes[0], e.nodes[1], e.nodes[2]);
                    if let Some(o) = row(out) {
                        stamps.push(Stamp {
                            target: Target::G,
                            row: o,
                            col: k,
                            factor: 1.0,
                            dep: Dep::Const,
                        });
                    }
                    match model {
                        OpAmpModel::Ideal => {
                            // Constraint: V(in+) − V(in−) = 0
                            if let Some(i) = row(inp) {
                                stamps.push(Stamp {
                                    target: Target::G,
                                    row: k,
                                    col: i,
                                    factor: 1.0,
                                    dep: Dep::Const,
                                });
                            }
                            if let Some(j) = row(inn) {
                                stamps.push(Stamp {
                                    target: Target::G,
                                    row: k,
                                    col: j,
                                    factor: -1.0,
                                    dep: Dep::Const,
                                });
                            }
                        }
                        OpAmpModel::FiniteGain { pole_hz, .. } => {
                            // V(out) = A(s)·(V(in+) − V(in−)) with
                            // A(s) = a0 / (1 + s/(2π·pole_hz)).  Multiplying
                            // the row by the denominator keeps the system in
                            // G + s·C form without changing the solution:
                            // (1 + s/ω)·V(out) − a0·(V(in+) − V(in−)) = 0.
                            if let Some(o) = row(out) {
                                stamps.push(Stamp {
                                    target: Target::G,
                                    row: k,
                                    col: o,
                                    factor: 1.0,
                                    dep: Dep::Const,
                                });
                                stamps.push(Stamp {
                                    target: Target::C,
                                    row: k,
                                    col: o,
                                    factor: 1.0 / (TAU * pole_hz),
                                    dep: Dep::Const,
                                });
                            }
                            // The element "value" is a0 (see ElementKind::value).
                            if let Some(i) = row(inp) {
                                stamps.push(Stamp {
                                    target: Target::G,
                                    row: k,
                                    col: i,
                                    factor: -1.0,
                                    dep: Dep::Value,
                                });
                            }
                            if let Some(j) = row(inn) {
                                stamps.push(Stamp {
                                    target: Target::G,
                                    row: k,
                                    col: j,
                                    factor: 1.0,
                                    dep: Dep::Value,
                                });
                            }
                        }
                    }
                }
            }
            element_stamps.push(stamps);
        }

        let values: Vec<f64> = circuit.iter().map(|(id, _)| circuit.value(id)).collect();
        let mut engine = Engine {
            g: vec![0.0; n * n],
            c: vec![0.0; n * n],
            values: values.clone(),
            nominal: values,
            systems: Vec::new(),
            slots: HashMap::new(),
            last_used: Vec::new(),
            rhs: vec![Complex::ZERO; n],
            assembly: vec![Complex::ZERO; n * n],
            tick: 0,
            stats: SolverStats::default(),
            probe: None,
        };
        engine.restamp(&element_stamps, n);

        Mna {
            circuit,
            branch_elements,
            n_nodes,
            n,
            rank_one: element_stamps
                .iter()
                .map(|s| RankOne::from_stamps(s))
                .collect(),
            element_stamps,
            rhs_stamps,
            engine: RefCell::new(engine),
        }
    }

    /// The circuit this engine was built for.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Number of unknowns in the MNA system.
    pub fn unknown_count(&self) -> usize {
        self.n
    }

    /// Current (possibly patched) scalar value of an element.
    pub fn value(&self, element: ElementId) -> f64 {
        self.engine.borrow().values[element.index()]
    }

    /// Replaces the scalar value of an element, recomputing only the `G`/`C`
    /// entries its value enters instead of re-stamping the matrices; the
    /// cached per-frequency factorizations are refactored on their next use.
    /// The bound circuit is never modified.  To evaluate a deviation without
    /// changing the engine, use [`Mna::probe`].
    ///
    /// Each entry is re-summed from the absolute contributions of every
    /// stamp in it, so patching is exact: any sequence of patches leaves the
    /// matrices bit-identical to a fresh engine over the same values.  A
    /// value whose contribution is not finite (e.g. a resistor set to
    /// exactly `0.0`, whose conductance is infinite) makes solves report the
    /// system as singular until a finite value is restored.
    pub fn set_value(&self, element: ElementId, new_value: f64) {
        let idx = element.index();
        let mut engine = self.engine.borrow_mut();
        let engine = &mut *engine;
        if engine.values[idx] == new_value {
            return;
        }
        engine.values[idx] = new_value;
        engine.stats.patches += 1;
        if self.rhs_stamps.iter().any(|(id, ..)| id.index() == idx) {
            // A source's AC value is part of the `AllAc` right-hand side.
            for system in &mut engine.systems {
                system.solution = None;
            }
        }
        let n = self.n;
        let slot_of = |stamp: &Stamp| stamp.row as usize * n + stamp.col as usize;
        let (mut touches_g, mut touches_c) = (false, false);
        for stamp in self.element_stamps[idx]
            .iter()
            .filter(|s| s.dep != Dep::Const)
        {
            let (target, slot) = (stamp.target, slot_of(stamp));
            // Re-sum the whole entry in assembly order: bit for bit what a
            // fresh assembly of the current values produces.
            let sum = self
                .element_stamps
                .iter()
                .zip(&engine.values)
                .flat_map(|(stamps, &value)| stamps.iter().map(move |s| (s, value)))
                .filter(|(s, _)| s.target == target && slot_of(s) == slot)
                .fold(0.0, |sum, (s, value)| sum + s.contribution(value));
            match target {
                Target::G => engine.g[slot] = sum,
                Target::C => engine.c[slot] = sum,
            }
            touches_g |= target == Target::G;
            touches_c |= target == Target::C;
        }
        for system in &mut engine.systems {
            // `C` does not enter the system at DC, so a `C`-only patch keeps
            // that factorization warm.
            if touches_g || (touches_c && f64::from_bits(system.key) != 0.0) {
                system.invalidate();
            }
        }
    }

    /// Multiplies the scalar value of an element by `factor` (see
    /// [`Mna::set_value`]).
    pub fn scale_value(&self, element: ElementId, factor: f64) {
        self.set_value(element, self.value(element) * factor);
    }

    /// Restores every element to its nominal (circuit) value: the matrices
    /// are re-stamped from the pattern and the system cache is dropped.
    pub fn reset_values(&self) {
        let mut engine = self.engine.borrow_mut();
        let engine = &mut *engine;
        engine.values.copy_from_slice(&engine.nominal);
        engine.restamp(&self.element_stamps, self.n);
        engine.clear_systems();
    }

    /// Counters for solves, assemblies, factorizations and patches since the
    /// engine was built.
    pub fn solver_stats(&self) -> SolverStats {
        self.engine.borrow().stats
    }

    /// Number of per-frequency systems currently cached.
    pub fn cached_system_count(&self) -> usize {
        self.engine.borrow().systems.len()
    }

    /// Drops all cached per-frequency systems (bounding memory for very long
    /// sweeps; they are rebuilt on demand).
    pub fn clear_system_cache(&self) {
        self.engine.borrow_mut().clear_systems();
    }

    /// Evaluates `f` with `element` at `value` in place of its current
    /// value, without changing the engine: every solve inside `f` (through
    /// [`Mna::gain`], [`Mna::solve_ac`], a
    /// [`crate::response::ResponseAnalyzer`] on this engine, …) answers for
    /// the deviated circuit by a rank-one (Sherman–Morrison) update of the
    /// current per-frequency factorization.  No cached factorization is
    /// invalidated, so a deviation search reuses the same warm systems for
    /// every probe, and a probe's result does not depend on the engine's
    /// history.  [`Mna::value`] keeps reporting the current value.
    ///
    /// A value whose coefficient change is not finite (a resistor probed at
    /// exactly `0.0`) or that makes the system singular is reported as
    /// [`AnalogError::SingularMatrix`] by the solves inside the probe.
    ///
    /// # Panics
    ///
    /// Panics if called inside another probe of the same engine.
    ///
    /// # Example
    ///
    /// ```
    /// use msatpg_analog::filters;
    /// use msatpg_analog::mna::Mna;
    ///
    /// let filter = filters::rc_low_pass(1.0e3);
    /// let c = filter.circuit();
    /// let (cap, out) = (c.find_element("C1").unwrap(), filter.output_node());
    /// let mna = Mna::new(c);
    /// let nominal = mna.gain("Vin", out, 1.0e3).unwrap();
    /// let doubled = mna.probe(cap, 2.0 * mna.value(cap), || mna.gain("Vin", out, 1.0e3));
    /// assert!(doubled.unwrap() < nominal);
    /// assert_eq!(mna.gain("Vin", out, 1.0e3).unwrap(), nominal);
    /// ```
    pub fn probe<T>(&self, element: ElementId, value: f64, f: impl FnOnce() -> T) -> T {
        /// Ends the probe when `f` returns or unwinds.
        struct EndProbe<'e>(&'e RefCell<Engine>);
        impl Drop for EndProbe<'_> {
            fn drop(&mut self) {
                // `f` holds no borrow of the engine once it has returned or
                // unwound; never panic in `drop` regardless.
                if let Ok(mut engine) = self.0.try_borrow_mut() {
                    engine.probe = None;
                }
            }
        }
        {
            let mut engine = self.engine.borrow_mut();
            assert!(engine.probe.is_none(), "Mna::probe calls do not nest");
            engine.probe = Some(Probe {
                element: element.index(),
                value,
            });
        }
        let _end = EndProbe(&self.engine);
        f()
    }

    /// Solves the DC operating point (all capacitors open, inductors
    /// shorted, sources at their DC values).
    ///
    /// # Errors
    ///
    /// Returns an error if the MNA matrix is singular.
    pub fn solve_dc(&self) -> Result<Solution, AnalogError> {
        self.solve(0.0, Rhs::AllDc)
    }

    /// Solves the AC small-signal response at `freq_hz` with every source at
    /// its AC magnitude.
    ///
    /// # Errors
    ///
    /// Returns an error if the MNA matrix is singular.
    pub fn solve_ac(&self, freq_hz: f64) -> Result<Solution, AnalogError> {
        self.solve(freq_hz, Rhs::AllAc)
    }

    /// Solves at `freq_hz` with only the named source active at the given
    /// magnitude (other sources are zeroed); `freq_hz = 0` performs a DC
    /// solve.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownElement`] if the source does not exist,
    /// or a singular-matrix error.
    pub fn solve_single_source(
        &self,
        source: &str,
        magnitude: f64,
        freq_hz: f64,
    ) -> Result<Solution, AnalogError> {
        let source = self.source_id(source)?;
        self.solve(freq_hz, Rhs::Single { source, magnitude })
    }

    /// Complex transfer function `V(output) / stimulus` from the named
    /// source to `output` at `freq_hz` (unit-magnitude stimulus).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Mna::solve_single_source`].
    pub fn transfer(
        &self,
        source: &str,
        output: NodeId,
        freq_hz: f64,
    ) -> Result<Complex, AnalogError> {
        let source = self.source_id(source)?;
        let mut engine = self.engine.borrow_mut();
        let rhs = Rhs::Single {
            source,
            magnitude: 1.0,
        };
        self.solve_in(&mut engine, freq_hz, rhs)?;
        Ok(if output.is_ground() {
            Complex::ZERO
        } else {
            engine.rhs[output.index() - 1]
        })
    }

    /// Gain magnitude `|V(output) / stimulus|` at `freq_hz`.  This is the
    /// hot path of every sweep and search: it builds no [`Solution`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Mna::transfer`].
    pub fn gain(&self, source: &str, output: NodeId, freq_hz: f64) -> Result<f64, AnalogError> {
        Ok(self.transfer(source, output, freq_hz)?.abs())
    }

    fn source_id(&self, source: &str) -> Result<ElementId, AnalogError> {
        self.circuit
            .find_element(source)
            .ok_or_else(|| AnalogError::UnknownElement {
                name: source.to_owned(),
            })
    }

    fn solve(&self, freq_hz: f64, rhs: Rhs) -> Result<Solution, AnalogError> {
        let mut engine = self.engine.borrow_mut();
        self.solve_in(&mut engine, freq_hz, rhs)?;
        let x = &engine.rhs;
        let mut voltages = vec![Complex::ZERO; self.circuit.node_count()];
        voltages[1..].copy_from_slice(&x[..self.n_nodes]);
        let branch_currents = self
            .branch_elements
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, x[self.n_nodes + i]))
            .collect();
        Ok(Solution {
            voltages,
            branch_currents,
        })
    }

    /// Solves at `freq_hz` for the given right-hand side, under the active
    /// probe if any, and leaves the solution vector in `engine.rhs`.
    fn solve_in(&self, engine: &mut Engine, freq_hz: f64, rhs: Rhs) -> Result<(), AnalogError> {
        let n = self.n;
        engine.stats.solves += 1;
        if n == 0 {
            return Ok(());
        }
        let key = freq_hz.to_bits();
        engine.tick += 1;
        let tick = engine.tick;
        let slot = match engine.slots.get(&key) {
            Some(&slot) => slot,
            None => {
                engine.stats.assemblies += 1;
                engine.insert_system(key, n)
            }
        };
        engine.last_used[slot] = tick;
        let Engine {
            g,
            c,
            values,
            systems,
            rhs: x,
            assembly,
            stats,
            probe,
            ..
        } = engine;
        let system = &mut systems[slot];
        if !system.lu.is_factored() {
            stats.factorizations += 1;
            let omega = TAU * freq_hz;
            for ((a, &g), &c) in assembly.iter_mut().zip(g.iter()).zip(c.iter()) {
                *a = Complex::new(g, omega * c);
            }
            system.lu.refactor_slice(assembly)?;
        }

        // A probed source changes the right-hand side (only `AllAc` reads
        // source values); such a solution is not cached.
        let probe = *probe;
        let source_probe = probe.filter(|p| {
            rhs == Rhs::AllAc
                && self
                    .rhs_stamps
                    .iter()
                    .any(|(id, ..)| id.index() == p.element)
        });
        match &mut system.solution {
            Some((cached, solution)) if *cached == rhs && source_probe.is_none() => {
                x.copy_from_slice(solution);
            }
            slot => {
                self.fill_rhs(x, values, rhs, source_probe);
                system.lu.solve_in_place(x);
                if source_probe.is_none() {
                    match slot {
                        Some((cached, solution)) => {
                            *cached = rhs;
                            solution.copy_from_slice(x);
                        }
                        None => *slot = Some((rhs, x.clone())),
                    }
                }
            }
        }

        let Some((probe, update)) =
            probe.and_then(|p| Some((p, self.rank_one[p.element].as_ref()?)))
        else {
            return Ok(());
        };
        let current = values[probe.element];
        let delta = match update.dep {
            Dep::Const => 0.0,
            Dep::Value => probe.value - current,
            Dep::Inverse => probe.value.recip() - current.recip(),
        };
        let delta = match update.target {
            Target::G => Complex::from_real(delta),
            Target::C => Complex::new(0.0, TAU * freq_hz * delta),
        };
        if delta == Complex::ZERO {
            return Ok(());
        }
        let singular = AnalogError::SingularMatrix {
            pivot: update.u[0].0,
        };
        if !delta.is_finite() {
            return Err(singular);
        }
        // z = A⁻¹u depends only on the frequency and the element.
        let z: &[Complex] = match &mut system.column {
            Some((element, z)) if *element == probe.element => z,
            slot => {
                let mut z = match slot.take() {
                    Some((_, z)) => z,
                    None => vec![Complex::ZERO; n],
                };
                z.fill(Complex::ZERO);
                for &(row, coefficient) in &update.u {
                    z[row] = Complex::from_real(coefficient);
                }
                system.lu.solve_in_place(&mut z);
                &slot.insert((probe.element, z)).1
            }
        };
        let dot = |w: &[Complex]| {
            update
                .v
                .iter()
                .fold(Complex::ZERO, |acc, &(col, coefficient)| {
                    acc + w[col] * coefficient
                })
        };
        let denominator = Complex::ONE + delta * dot(z);
        if denominator == Complex::ZERO || !denominator.is_finite() {
            return Err(singular);
        }
        let scale = delta * dot(x) / denominator;
        for (xi, &zi) in x.iter_mut().zip(z) {
            *xi -= scale * zi;
        }
        stats.rank_one_solves += 1;
        Ok(())
    }

    /// Writes the right-hand side of `rhs` into `b`; `probe` overrides the
    /// AC value of a probed source.
    fn fill_rhs(&self, b: &mut [Complex], values: &[f64], rhs: Rhs, probe: Option<Probe>) {
        b.fill(Complex::ZERO);
        for &(id, stamp, dc) in &self.rhs_stamps {
            let value = match rhs {
                Rhs::AllDc => dc,
                Rhs::AllAc => match probe {
                    Some(p) if p.element == id.index() => p.value,
                    _ => values[id.index()],
                },
                Rhs::Single { source, magnitude } => {
                    if source == id {
                        magnitude
                    } else {
                        0.0
                    }
                }
            };
            match stamp {
                RhsStamp::Branch { row } => {
                    b[row as usize] = Complex::from_real(value);
                }
                RhsStamp::Nodal { plus, minus } => {
                    if let Some(i) = plus {
                        b[i as usize] -= Complex::from_real(value);
                    }
                    if let Some(j) = minus {
                        b[j as usize] += Complex::from_real(value);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::OpAmpModel;

    fn rc_lowpass() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R", vin, vout, 1.0e3);
        c.capacitor("C", vout, Circuit::GROUND, 159.154943e-9); // fc ≈ 1 kHz
        (c, vout)
    }

    #[test]
    fn voltage_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.voltage_source("Vin", vin, Circuit::GROUND, 10.0, 1.0);
        c.resistor("R1", vin, mid, 2.0e3);
        c.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let sol = Mna::new(&c).solve_dc().unwrap();
        assert!((sol.voltage(mid).re - 6.0).abs() < 1e-9);
        // Source current: 10 V across 5 kΩ = 2 mA flowing out of + terminal.
        let i = sol.branch_current(c.find_element("Vin").unwrap()).unwrap();
        assert!((i.re.abs() - 2.0e-3).abs() < 1e-9);
    }

    #[test]
    fn rc_lowpass_cutoff() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        // Well below cutoff: gain ≈ 1.  At cutoff: 1/sqrt(2).  Well above: small.
        let g_low = mna.gain("Vin", vout, 1.0).unwrap();
        let g_fc = mna.gain("Vin", vout, 1000.0).unwrap();
        let g_high = mna.gain("Vin", vout, 100_000.0).unwrap();
        assert!((g_low - 1.0).abs() < 1e-3);
        assert!((g_fc - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(g_high < 0.02);
    }

    #[test]
    fn inverting_amplifier_with_ideal_opamp() {
        // Gain = -Rf/Rin = -10
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp("A1", Circuit::GROUND, vminus, vout, OpAmpModel::Ideal);
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 100.0).unwrap();
        assert!((h.re + 10.0).abs() < 1e-6);
        assert!(h.im.abs() < 1e-9);
    }

    #[test]
    fn inverting_amplifier_with_finite_gain_opamp() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp(
            "A1",
            Circuit::GROUND,
            vminus,
            vout,
            OpAmpModel::FiniteGain {
                a0: 1.0e6,
                pole_hz: 10.0,
            },
        );
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 1.0).unwrap();
        // Finite but large gain: very close to -10.
        assert!((h.abs() - 10.0).abs() < 0.01);
    }

    #[test]
    fn finite_gain_opamp_rolls_off_above_the_pole() {
        // Open-loop follower behaviour: closed-loop bandwidth of the
        // inverting amp is a0·pole/(1+Rf/Rin) ≈ 0.9 MHz; well above it the
        // gain must fall clearly below the low-frequency value.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vminus = c.node("vminus");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("Rin", vin, vminus, 1.0e3);
        c.resistor("Rf", vminus, vout, 10.0e3);
        c.opamp(
            "A1",
            Circuit::GROUND,
            vminus,
            vout,
            OpAmpModel::FiniteGain {
                a0: 1.0e5,
                pole_hz: 10.0,
            },
        );
        let mna = Mna::new(&c);
        let g_low = mna.gain("Vin", vout, 100.0).unwrap();
        let g_high = mna.gain("Vin", vout, 10.0e6).unwrap();
        assert!((g_low - 10.0).abs() < 0.1, "low-frequency gain {g_low}");
        assert!(g_high < g_low / 5.0, "high-frequency gain {g_high}");
    }

    #[test]
    fn vcvs_gain_stage() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.vcvs("E1", vout, Circuit::GROUND, vin, Circuit::GROUND, 5.0);
        c.resistor("Rload", vout, Circuit::GROUND, 1.0e3);
        let mna = Mna::new(&c);
        let h = mna.transfer("Vin", vout, 50.0).unwrap();
        assert!((h.re - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rl_highpass_behaviour() {
        // Series R from source, inductor to ground: V(out) rises with f.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.voltage_source("Vin", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R", vin, vout, 1.0e3);
        c.inductor("L", vout, Circuit::GROUND, 0.1);
        let mna = Mna::new(&c);
        let g_low = mna.gain("Vin", vout, 10.0).unwrap();
        let g_high = mna.gain("Vin", vout, 100_000.0).unwrap();
        assert!(g_low < 0.01);
        assert!(g_high > 0.98);
        // DC: inductor is a short.
        let dc = mna.solve_dc().unwrap();
        assert!(dc.voltage(vout).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.current_source("I1", Circuit::GROUND, n1, 1.0e-3, 1.0e-3);
        c.resistor("R1", n1, Circuit::GROUND, 1.0e3);
        let sol = Mna::new(&c).solve_dc().unwrap();
        // 1 mA into 1 kΩ = 1 V.
        assert!((sol.voltage(n1).re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_source_drive_zeroes_other_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let bnode = c.node("b");
        c.voltage_source("V1", a, Circuit::GROUND, 1.0, 1.0);
        c.voltage_source("V2", bnode, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R1", a, bnode, 1.0e3);
        let mna = Mna::new(&c);
        let sol = mna.solve_single_source("V1", 2.0, 0.0).unwrap();
        assert!((sol.voltage(a).re - 2.0).abs() < 1e-12);
        assert!(sol.voltage(bnode).abs() < 1e-12);
        assert!(mna.solve_single_source("nope", 1.0, 0.0).is_err());
    }

    #[test]
    fn unknown_count_matches_structure() {
        let (c, _) = rc_lowpass();
        let mna = Mna::new(&c);
        // 2 non-ground nodes + 1 voltage-source branch.
        assert_eq!(mna.unknown_count(), 3);
    }

    #[test]
    fn value_patching_matches_a_rebuilt_circuit() {
        let (c, vout) = rc_lowpass();
        let r = c.find_element("R").unwrap();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        // Patch R to 2 kΩ and C to half: cutoff stays at ~1 kHz.
        mna.set_value(r, 2.0e3);
        mna.scale_value(cap, 0.5);
        assert_eq!(mna.value(r), 2.0e3);
        let mut rebuilt = c.clone();
        rebuilt.set_value(r, 2.0e3);
        rebuilt.scale_value(cap, 0.5);
        let reference = Mna::new(&rebuilt);
        for freq in [1.0, 500.0, 1000.0, 20_000.0] {
            let a = mna.gain("Vin", vout, freq).unwrap();
            let b = reference.gain("Vin", vout, freq).unwrap();
            assert!(
                (a - b).abs() < 1e-12,
                "gain mismatch at {freq} Hz: {a} vs {b}"
            );
        }
        // Restoring the nominal values restores the nominal response.
        mna.reset_values();
        let nominal = Mna::new(&c);
        for freq in [1.0, 1000.0, 20_000.0] {
            let a = mna.gain("Vin", vout, freq).unwrap();
            let b = nominal.gain("Vin", vout, freq).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
        // Patching is exact: after 50 rounds of deviating every passive and
        // restoring it, the engine answers bit for bit like a fresh one.
        for filter in [
            crate::filters::second_order_band_pass(),
            crate::filters::fifth_order_chebyshev(),
        ] {
            let circuit = filter.circuit();
            let passive = circuit.passive_elements();
            let mna = Mna::new(circuit);
            for round in 1..=50 {
                for &e in &passive {
                    mna.scale_value(e, 1.0 + 0.01 * f64::from(round));
                }
                for &e in &passive {
                    mna.set_value(e, circuit.value(e));
                }
            }
            let fresh = Mna::new(circuit);
            for freq in [10.0, 300.0, 1.0e3, 4.0e3, 30.0e3] {
                let a = mna.gain("Vin", filter.output_node(), freq).unwrap();
                let b = fresh.gain("Vin", filter.output_node(), freq).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{} at {freq} Hz", filter.name());
            }
        }
    }

    #[test]
    fn patching_updates_cached_frequency_systems() {
        let (c, vout) = rc_lowpass();
        let cap = c.find_element("C").unwrap();
        let mna = Mna::new(&c);
        // Populate the per-frequency cache at nominal values...
        let g_nominal = mna.gain("Vin", vout, 1000.0).unwrap();
        assert!(mna.cached_system_count() >= 1);
        // ...then patch: the cached system must be updated, not stale.
        mna.scale_value(cap, 10.0);
        let g_patched = mna.gain("Vin", vout, 1000.0).unwrap();
        assert!(
            g_patched < g_nominal / 2.0,
            "10× capacitor must pull the 1 kHz gain well down ({g_nominal} -> {g_patched})"
        );
        let mut shifted = c.clone();
        shifted.scale_value(cap, 10.0);
        let reference = Mna::new(&shifted).gain("Vin", vout, 1000.0).unwrap();
        assert!((g_patched - reference).abs() < 1e-12);
    }

    #[test]
    fn zero_valued_element_is_singular_not_poisonous() {
        // Setting a resistor to exactly 0.0 makes its conductance infinite;
        // solving in that state must be a clean singular-matrix error, and
        // restoring a finite value must fully recover the engine (no NaN
        // left behind by the inf − inf delta).
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.voltage_source("Vin", vin, Circuit::GROUND, 10.0, 1.0);
        c.resistor("R1", vin, mid, 2.0e3);
        c.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let r1 = c.find_element("R1").unwrap();
        let mna = Mna::new(&c);
        let nominal = mna.solve_dc().unwrap().voltage(mid).re;
        mna.set_value(r1, 0.0);
        assert!(matches!(
            mna.solve_dc(),
            Err(AnalogError::SingularMatrix { .. })
        ));
        mna.set_value(r1, 2.0e3);
        let restored = mna.solve_dc().unwrap().voltage(mid).re;
        assert!(
            (restored - nominal).abs() < 1e-12,
            "engine must recover exactly after a through-zero patch: {restored} vs {nominal}"
        );
    }

    #[test]
    fn cache_eviction_is_lru_not_wholesale() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        // Fill well past capacity with distinct frequencies.
        let total = MAX_CACHED_SYSTEMS + 88;
        for i in 0..total {
            let _ = mna.gain("Vin", vout, 100.0 + i as f64).unwrap();
        }
        assert_eq!(
            mna.cached_system_count(),
            MAX_CACHED_SYSTEMS,
            "cache stays bounded at capacity"
        );
        // The most recent frequency is still warm: re-solving it must not
        // assemble a new system.
        let assemblies = mna.solver_stats().assemblies;
        let _ = mna.gain("Vin", vout, 100.0 + (total - 1) as f64).unwrap();
        assert_eq!(mna.solver_stats().assemblies, assemblies);
        // The oldest frequency was the LRU victim: re-solving it assembles.
        let _ = mna.gain("Vin", vout, 100.0).unwrap();
        assert_eq!(mna.solver_stats().assemblies, assemblies + 1);
        // A wholesale clear would have evicted the warm tail too; LRU keeps
        // it — every recent frequency re-solves without assembly.
        let assemblies = mna.solver_stats().assemblies;
        for i in (total - 100)..total {
            let _ = mna.gain("Vin", vout, 100.0 + i as f64).unwrap();
        }
        assert_eq!(
            mna.solver_stats().assemblies,
            assemblies,
            "the recent working set must survive eviction pressure"
        );
    }

    #[test]
    fn repeated_solves_reuse_assembly_and_factorization() {
        let (c, vout) = rc_lowpass();
        let mna = Mna::new(&c);
        for _ in 0..5 {
            let _ = mna.gain("Vin", vout, 1000.0).unwrap();
            let _ = mna.solve_ac(1000.0).unwrap();
        }
        let stats = mna.solver_stats();
        assert_eq!(stats.solves, 10);
        // One distinct frequency: one assembly, one factorization.
        assert_eq!(stats.assemblies, 1);
        assert_eq!(stats.factorizations, 1);
        assert_eq!(mna.cached_system_count(), 1);
        mna.clear_system_cache();
        assert_eq!(mna.cached_system_count(), 0);
        // Next solve re-assembles.
        let _ = mna.solve_ac(1000.0).unwrap();
        assert_eq!(mna.solver_stats().assemblies, 2);
    }

    /// One circuit with every element kind: an RLC section, a VCVS, a
    /// finite-gain op-amp stage and an AC current source.
    fn every_kind() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let a = c.node("a");
        let b = c.node("b");
        let e = c.node("e");
        let m = c.node("m");
        let out = c.node("out");
        c.voltage_source("Vin", vin, Circuit::GROUND, 1.0, 1.0);
        c.resistor("R1", vin, a, 1.0e3);
        c.inductor("L1", a, b, 10.0e-3);
        c.capacitor("C1", b, Circuit::GROUND, 100.0e-9);
        c.resistor("R2", b, Circuit::GROUND, 2.0e3);
        c.vcvs("E1", e, Circuit::GROUND, b, Circuit::GROUND, 2.0);
        c.resistor("R3", e, m, 1.0e3);
        c.resistor("R4", m, out, 4.7e3);
        c.capacitor("C2", m, out, 1.0e-9);
        c.opamp(
            "A1",
            Circuit::GROUND,
            m,
            out,
            OpAmpModel::FiniteGain {
                a0: 1.0e4,
                pole_hz: 100.0,
            },
        );
        c.current_source("I1", Circuit::GROUND, out, 0.0, 1.0e-4);
        c.resistor("R5", out, Circuit::GROUND, 10.0e3);
        (c, out)
    }

    #[test]
    fn probes_of_every_element_kind_match_rebuilt_circuits() {
        let (c, out) = every_kind();
        let mna = Mna::new(&c);
        for (id, element) in c.iter() {
            for factor in [0.5, 1.3, 3.0] {
                let value = c.value(id) * factor;
                let mut rebuilt = c.clone();
                rebuilt.set_value(id, value);
                let reference = Mna::new(&rebuilt);
                for freq in [0.0, 50.0, 1.0e3, 5.0e3, 200.0e3] {
                    let probed = mna.probe(id, value, || mna.solve_ac(freq)).unwrap();
                    let expected = reference.solve_ac(freq).unwrap();
                    let (x, y) = (probed.voltage(out), expected.voltage(out));
                    assert!(
                        (x - y).abs() <= 1e-10 * y.abs().max(1e-6),
                        "{} x{factor} at {freq} Hz: {x} vs {y}",
                        element.name
                    );
                    let gain = mna.probe(id, value, || mna.gain("Vin", out, freq)).unwrap();
                    let expected = reference.gain("Vin", out, freq).unwrap();
                    assert!((gain - expected).abs() <= 1e-10 * expected.max(1e-6));
                }
            }
        }
    }

    #[test]
    fn probes_leave_the_engine_and_its_factorizations_untouched() {
        let (c, out) = every_kind();
        let cap = c.find_element("C1").unwrap();
        let mna = Mna::new(&c);
        let freqs = [100.0, 1.0e3, 10.0e3];
        let nominal: Vec<f64> = freqs
            .iter()
            .map(|&f| mna.gain("Vin", out, f).unwrap())
            .collect();
        let before = mna.solver_stats();
        for factor in [0.2, 0.9, 1.1, 4.0] {
            mna.probe(cap, factor * mna.value(cap), || {
                for &f in &freqs {
                    mna.gain("Vin", out, f).unwrap();
                }
            });
        }
        let after = mna.solver_stats();
        assert_eq!(after.factorizations, before.factorizations);
        assert_eq!(after.assemblies, before.assemblies);
        assert_eq!(after.patches, before.patches);
        assert_eq!(after.solves - before.solves, 12);
        assert_eq!(after.rank_one_solves - before.rank_one_solves, 12);
        assert_eq!(mna.value(cap), c.value(cap));
        for (&f, &g) in freqs.iter().zip(&nominal) {
            assert_eq!(mna.gain("Vin", out, f).unwrap(), g);
        }
    }

    #[test]
    fn probe_results_do_not_depend_on_engine_history() {
        let (c, out) = every_kind();
        let r2 = c.find_element("R2").unwrap();
        let l1 = c.find_element("L1").unwrap();
        let fresh = Mna::new(&c);
        let expected = fresh.probe(r2, 700.0, || fresh.gain("Vin", out, 3.0e3).unwrap());
        let used = Mna::new(&c);
        used.probe(l1, 0.02, || used.gain("Vin", out, 3.0e3).unwrap());
        used.gain("Vin", out, 3.0e3).unwrap();
        let again = used.probe(r2, 700.0, || used.gain("Vin", out, 3.0e3).unwrap());
        assert_eq!(again.to_bits(), expected.to_bits());
    }

    #[test]
    fn probing_a_resistor_at_zero_is_singular() {
        let (c, out) = rc_lowpass();
        let r = c.find_element("R").unwrap();
        let mna = Mna::new(&c);
        let probed = mna.probe(r, 0.0, || mna.gain("Vin", out, 1.0e3));
        assert!(matches!(probed, Err(AnalogError::SingularMatrix { .. })));
        assert!(mna.gain("Vin", out, 1.0e3).is_ok());
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_probes_panic() {
        let (c, _) = rc_lowpass();
        let r = c.find_element("R").unwrap();
        let mna = Mna::new(&c);
        mna.probe(r, 1.0, || mna.probe(r, 2.0, || ()));
    }
}

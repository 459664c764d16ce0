//! Variable-ordering policy for the digital OBDD engines: the dynamic
//! reordering (sifting) knob threaded through [`DigitalAtpg`] and
//! [`PropagationEngine`].
//!
//! OBDD size is notoriously order-sensitive.  Both engines declare the
//! primary inputs in netlist order — the paper's order — and the
//! propagation engine declares the composite variable `D` last.
//! [`DvoMode`] optionally runs Rudell sifting on the
//! live arena (see `msatpg_bdd::reorder`) at a deterministic
//! construction-time safe point, before any per-fault work consumes the
//! order, so reports stay byte-identical across thread counts.  The default
//! never reorders; `MSATPG_DVO` is read only by
//! [`crate::AtpgOptions::from_env`].
//!
//! [`DigitalAtpg`]: crate::DigitalAtpg
//! [`PropagationEngine`]: crate::PropagationEngine

/// Dynamic-variable-ordering knob of the digital OBDD engines.
///
/// When active, the engine runs sifting-until-convergence on its manager at
/// a deterministic construction-time safe point (after the signal functions
/// and the constraint BDD are built and protected).  Reordering never
/// renumbers handles or `VarId`s — only the var↔level permutation moves —
/// so everything downstream (cube extraction, PPSFP cross-checks, reports)
/// is unaffected except for memory footprint.  Results are *equivalent*
/// across modes (same coverage, same outcome taxonomy) but not
/// byte-identical: a different order yields different satisfying cubes.
/// Within one mode, reports remain byte-identical across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DvoMode {
    /// Keep the declaration order — the pre-reordering behavior.  This is
    /// the default.
    #[default]
    Never,
    /// Sift to convergence at the construction-time safe point.
    UntilConvergence,
}

impl DvoMode {
    /// Whether the mode asks for reordering.
    pub fn is_active(self) -> bool {
        self == DvoMode::UntilConvergence
    }
}

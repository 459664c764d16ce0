//! Crash-consistent persistence for the durable ATPG artifacts.
//!
//! Two artifact kinds are stored — digital [`AtpgReport`]s and campaign
//! [`Checkpoint`]s, the snapshots behind [`DigitalAtpg::with_checkpoint`](crate::DigitalAtpg::with_checkpoint)
//! / [`DigitalAtpg::with_resume`](crate::DigitalAtpg::with_resume).
//!
//! # Envelope
//!
//! Every file is a one-line header followed by a UTF-8 text payload:
//!
//! ```text
//! msatpg-store 1 <kind> <payload-bytes> <fnv1a64-checksum>
//! <payload...>
//! ```
//!
//! The header carries the format version (see [`FORMAT_VERSION`]), the
//! artifact kind (`report` / `checkpoint`) and an
//! FNV-1a 64 checksum of the payload.  Readers verify all of it **before**
//! touching the payload, so any malformed byte — a short file, a flipped
//! bit, a future version, the wrong artifact kind — surfaces as a
//! structured [`StoreError`], never a panic and never a silently wrong
//! value.
//!
//! # Atomic writes
//!
//! Writers never touch the destination in place: the bytes go to a
//! sibling `<path>.tmp`, are `fsync`ed, and are renamed over the
//! destination (plus a best-effort directory sync).  A crash at any point
//! leaves either the old file or the new file, both intact — the property
//! the [`ChaosEvent::Crash`] / [`ChaosEvent::TornWrite`] /
//! [`ChaosEvent::BitFlip`] injection sites exist to demonstrate.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use msatpg_digital::fault::StuckAtFault;
use msatpg_digital::netlist::Netlist;
use msatpg_exec::{ChaosEvent, ChaosInjector};

use crate::digital_atpg::{AbortReason, AtpgReport, TestOutcome, TestVector};

/// Version stamped into every envelope header; bump on incompatible layout
/// changes.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &str = "msatpg-store";

/// A failure while persisting or loading a durable artifact.
///
/// Loading a [`save_report`] or [`save_checkpoint`] file fails with one of
/// these.  All variants carry the offending path; [`StoreError::source`]
/// exposes the underlying I/O error of [`StoreError::Io`].
#[derive(Debug)]
pub enum StoreError {
    /// The operating system refused the read or write.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is a store file, but from an incompatible format version.
    VersionMismatch {
        /// File the operation targeted.
        path: PathBuf,
        /// The version this build reads and writes.
        expected: u32,
        /// The version the file declares.
        found: String,
    },
    /// The file ends before the declared payload does (torn write, crash
    /// mid-copy, manual truncation).
    Truncated {
        /// File the operation targeted.
        path: PathBuf,
        /// What was missing.
        reason: String,
    },
    /// The file is present and complete but its content is invalid — bad
    /// magic, checksum mismatch, malformed payload, wrong artifact kind.
    Corrupt {
        /// File the operation targeted.
        path: PathBuf,
        /// What was violated.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            StoreError::VersionMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: store format version {found} (this build reads version {expected})",
                path.display()
            ),
            StoreError::Truncated { path, reason } => {
                write!(f, "{} is truncated: {reason}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "{} is corrupt: {reason}", path.display())
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StoreError> for crate::CoreError {
    fn from(e: StoreError) -> Self {
        crate::CoreError::Store {
            reason: e.to_string(),
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_owned(),
        source,
    }
}

fn truncated(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Truncated {
        path: path.to_owned(),
        reason: reason.into(),
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_owned(),
        reason: reason.into(),
    }
}

/// FNV-1a 64 over the payload bytes — cheap, dependency-free, and plenty to
/// catch torn writes and flipped bits (this is corruption *detection*, not
/// an integrity MAC).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds the full on-disk bytes for a payload: header line + payload.
fn envelope(kind: &str, payload: &str) -> Vec<u8> {
    let mut out = format!(
        "{MAGIC} {FORMAT_VERSION} {kind} {} {:016x}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Reads and fully validates an envelope, returning the payload text.
fn read_envelope(path: &Path, expected_kind: &str) -> Result<String, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| truncated(path, "no envelope header line"))?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| corrupt(path, "envelope header is not UTF-8"))?;
    let mut fields = header.split(' ');
    let (magic, version, kind, len, checksum) = match (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) {
        (Some(m), Some(v), Some(k), Some(l), Some(c)) => (m, v, k, l, c),
        _ => {
            return Err(corrupt(
                path,
                format!("malformed envelope header `{header}`"),
            ))
        }
    };
    if fields.next().is_some() {
        return Err(corrupt(path, "trailing fields in envelope header"));
    }
    if magic != MAGIC {
        return Err(corrupt(path, "not a msatpg store file (bad magic)"));
    }
    match version.parse::<u32>() {
        Ok(v) if v == FORMAT_VERSION => {}
        _ => {
            return Err(StoreError::VersionMismatch {
                path: path.to_owned(),
                expected: FORMAT_VERSION,
                found: version.to_owned(),
            })
        }
    }
    if kind != expected_kind {
        return Err(corrupt(
            path,
            format!("artifact kind `{kind}` (expected `{expected_kind}`)"),
        ));
    }
    let len: usize = len
        .parse()
        .map_err(|_| corrupt(path, format!("malformed payload length `{len}`")))?;
    let declared = u64::from_str_radix(checksum, 16)
        .map_err(|_| corrupt(path, format!("malformed checksum `{checksum}`")))?;
    let payload = &bytes[header_end + 1..];
    if payload.len() < len {
        return Err(truncated(
            path,
            format!("payload is {} of {len} declared bytes", payload.len()),
        ));
    }
    if payload.len() > len {
        return Err(corrupt(
            path,
            format!("{} trailing bytes after the payload", payload.len() - len),
        ));
    }
    let actual = fnv1a64(payload);
    if actual != declared {
        return Err(corrupt(
            path,
            format!("checksum mismatch (stored {declared:016x}, computed {actual:016x})"),
        ));
    }
    String::from_utf8(payload.to_vec()).map_err(|_| corrupt(path, "payload is not UTF-8"))
}

/// The sibling temporary path used by the atomic writer.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = fs::File::create(path).map_err(|e| io_err(path, e))?;
    file.write_all(bytes).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Crash-consistent write: temp sibling, `fsync`, atomic rename, then a
/// best-effort sync of the containing directory (ignored where directories
/// cannot be opened for syncing).
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    write_synced(&tmp, bytes)?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent() {
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

/// [`atomic_write`] with the store-class chaos sites applied first.
///
/// * [`ChaosEvent::Crash`] — writes a partial temp file and returns without
///   renaming: the destination keeps its previous (intact) content;
/// * [`ChaosEvent::TornWrite`] — a strict prefix of the bytes reaches the
///   destination directly, simulating a non-atomic overwrite cut short;
/// * [`ChaosEvent::BitFlip`] — one payload bit is inverted, then the write
///   proceeds normally (the checksum catches it at load time).
///
/// All three leave a state `read_envelope` reports as a structured error
/// (or, for `Crash`, the previous valid file), which is exactly what the
/// recovery tests assert.
pub(crate) fn atomic_write_chaotic(
    path: &Path,
    bytes: &[u8],
    chaos: Option<(&ChaosInjector, u64)>,
) -> Result<(), StoreError> {
    if let Some((injector, site)) = chaos {
        match injector.fires_store(site) {
            Some(ChaosEvent::Crash) => {
                let keep = bytes.len() / 2;
                let tmp = tmp_path(path);
                write_synced(&tmp, bytes.get(..keep).unwrap_or(bytes))?;
                return Ok(());
            }
            Some(ChaosEvent::TornWrite) => {
                let keep = injector.store_draw(site, bytes.len() as u64) as usize;
                return write_synced(path, bytes.get(..keep).unwrap_or(bytes));
            }
            Some(ChaosEvent::BitFlip) => {
                let mut corrupted = bytes.to_vec();
                let payload_start = corrupted
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|p| p + 1)
                    .unwrap_or(0);
                let payload_bits = (corrupted.len() - payload_start) as u64 * 8;
                let draw = injector.store_draw(site, payload_bits) as usize;
                if let Some(byte) = corrupted.get_mut(payload_start + draw / 8) {
                    *byte ^= 1 << (draw % 8);
                }
                return atomic_write(path, &corrupted);
            }
            _ => {}
        }
    }
    atomic_write(path, bytes)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

fn pattern_of(assignment: &[Option<bool>]) -> String {
    assignment
        .iter()
        .map(|v| match v {
            Some(true) => '1',
            Some(false) => '0',
            None => 'X',
        })
        .collect()
}

fn assignment_of(pattern: &str, width: usize) -> Result<Vec<Option<bool>>, String> {
    let assignment: Vec<Option<bool>> = pattern
        .chars()
        .map(|c| match c {
            '1' => Ok(Some(true)),
            '0' => Ok(Some(false)),
            'X' => Ok(None),
            other => Err(format!("invalid pattern character `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    if assignment.len() != width {
        return Err(format!(
            "pattern is {} bits wide, circuit has {width} primary inputs",
            assignment.len()
        ));
    }
    Ok(assignment)
}

fn abort_code(reason: AbortReason) -> char {
    match reason {
        AbortReason::Budget => 'b',
        AbortReason::Deadline => 'd',
        AbortReason::Panic => 'p',
    }
}

fn abort_of(code: &str) -> Result<AbortReason, String> {
    match code {
        "b" => Ok(AbortReason::Budget),
        "d" => Ok(AbortReason::Deadline),
        "p" => Ok(AbortReason::Panic),
        other => Err(format!("unknown abort reason `{other}`")),
    }
}

/// Renders one fault as `<stuck> <signal name>` (name last: it may contain
/// spaces).
fn fault_fields(netlist: &Netlist, fault: StuckAtFault) -> String {
    format!(
        "{} {}",
        u8::from(fault.stuck_at),
        netlist.signal_name(fault.signal)
    )
}

fn parse_stuck(token: &str) -> Result<bool, String> {
    match token {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("invalid stuck-at value `{other}`")),
    }
}

fn resolve_fault(netlist: &Netlist, stuck: &str, name: &str) -> Result<StuckAtFault, String> {
    let stuck_at = parse_stuck(stuck)?;
    let signal = netlist
        .find_signal(name)
        .ok_or_else(|| format!("unknown signal `{name}`"))?;
    Ok(StuckAtFault { signal, stuck_at })
}

/// Persists a digital [`AtpgReport`] atomically.  Faults and vectors are
/// stored by signal *name*, so the report can be reloaded against any
/// equivalently-named netlist (e.g. one re-read from its `.bench` text).
pub fn save_report(path: &Path, netlist: &Netlist, report: &AtpgReport) -> Result<(), StoreError> {
    atomic_write(path, &envelope("report", &report_payload(netlist, report)))
}

fn report_payload(netlist: &Netlist, report: &AtpgReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "circuit {}\n",
        report.circuit.replace(['\n', '\r'], " ")
    ));
    out.push_str(&format!("total_faults {}\n", report.total_faults));
    out.push_str(&format!("detected {}\n", report.detected));
    out.push_str(&format!("constrained {}\n", u8::from(report.constrained)));
    out.push_str(&format!("cpu_ns {}\n", report.cpu.as_nanos()));
    out.push_str(&format!("untestable {}\n", report.untestable.len()));
    for &fault in &report.untestable {
        out.push_str(&format!("u {}\n", fault_fields(netlist, fault)));
    }
    out.push_str(&format!("degraded {}\n", report.degraded.len()));
    for &fault in &report.degraded {
        out.push_str(&format!("g {}\n", fault_fields(netlist, fault)));
    }
    out.push_str(&format!("aborted {}\n", report.aborted.len()));
    for &(fault, reason) in &report.aborted {
        out.push_str(&format!(
            "a {} {}\n",
            abort_code(reason),
            fault_fields(netlist, fault)
        ));
    }
    out.push_str(&format!("vectors {}\n", report.vectors.len()));
    for vector in &report.vectors {
        out.push_str(&format!(
            "v {} {} {} {}\n",
            u8::from(vector.fault.stuck_at),
            vector.observed_output,
            pattern_of(&vector.assignment),
            netlist.signal_name(vector.fault.signal)
        ));
    }
    out
}

/// A line-oriented payload reader shared by the report and checkpoint
/// parsers: every extraction returns a `String` reason on failure, which the
/// callers wrap into [`StoreError::Corrupt`] with the file path attached.
struct LineReader<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> LineReader<'a> {
    fn new(payload: &'a str) -> Self {
        LineReader {
            lines: payload.lines(),
            lineno: 0,
        }
    }

    fn next_line(&mut self) -> Result<&'a str, String> {
        self.lineno += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("payload ends early (expected line {})", self.lineno))
    }

    /// Reads a `<keyword> <rest>` line, returning the rest.
    fn keyword(&mut self, keyword: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        match line.split_once(' ') {
            Some((k, rest)) if k == keyword => Ok(rest),
            _ if line == keyword => Ok(""),
            _ => Err(format!("expected `{keyword} ...`, got `{line}`")),
        }
    }

    fn count(&mut self, keyword: &str) -> Result<usize, String> {
        let value = self.keyword(keyword)?;
        value
            .parse()
            .map_err(|_| format!("malformed `{keyword}` count `{value}`"))
    }

    fn done(mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some(extra) => Err(format!("trailing content `{extra}`")),
        }
    }
}

/// Loads a report saved by [`save_report`], resolving signal names against
/// `netlist`.
pub fn load_report(path: &Path, netlist: &Netlist) -> Result<AtpgReport, StoreError> {
    let payload = read_envelope(path, "report")?;
    parse_report(&payload, netlist).map_err(|reason| corrupt(path, reason))
}

fn parse_report(payload: &str, netlist: &Netlist) -> Result<AtpgReport, String> {
    let width = netlist.primary_inputs().len();
    let outputs = netlist.primary_outputs().len();
    let mut reader = LineReader::new(payload);
    let circuit = reader.keyword("circuit")?.to_owned();
    let total_faults = reader.count("total_faults")?;
    let detected = reader.count("detected")?;
    let constrained = match reader.keyword("constrained")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("invalid constrained flag `{other}`")),
    };
    let cpu_raw = reader.keyword("cpu_ns")?;
    let cpu_ns: u128 = cpu_raw
        .parse()
        .map_err(|_| format!("malformed cpu_ns `{cpu_raw}`"))?;
    let cpu = Duration::new(
        (cpu_ns / 1_000_000_000) as u64,
        (cpu_ns % 1_000_000_000) as u32,
    );

    let untestable_count = reader.count("untestable")?;
    let mut untestable = Vec::with_capacity(untestable_count);
    for _ in 0..untestable_count {
        let rest = reader.keyword("u")?;
        let (stuck, name) = rest
            .split_once(' ')
            .ok_or_else(|| format!("malformed untestable record `u {rest}`"))?;
        untestable.push(resolve_fault(netlist, stuck, name)?);
    }
    let degraded_count = reader.count("degraded")?;
    let mut degraded = Vec::with_capacity(degraded_count);
    for _ in 0..degraded_count {
        let rest = reader.keyword("g")?;
        let (stuck, name) = rest
            .split_once(' ')
            .ok_or_else(|| format!("malformed degraded record `g {rest}`"))?;
        degraded.push(resolve_fault(netlist, stuck, name)?);
    }
    let aborted_count = reader.count("aborted")?;
    let mut aborted = Vec::with_capacity(aborted_count);
    for _ in 0..aborted_count {
        let rest = reader.keyword("a")?;
        let mut fields = rest.splitn(3, ' ');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(code), Some(stuck), Some(name)) => {
                let reason = abort_of(code)?;
                aborted.push((resolve_fault(netlist, stuck, name)?, reason));
            }
            _ => return Err(format!("malformed aborted record `a {rest}`")),
        }
    }
    let vector_count = reader.count("vectors")?;
    let mut vectors = Vec::with_capacity(vector_count);
    for _ in 0..vector_count {
        let rest = reader.keyword("v")?;
        let mut fields = rest.splitn(4, ' ');
        match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(stuck), Some(observed), Some(pattern), Some(name)) => {
                let fault = resolve_fault(netlist, stuck, name)?;
                let observed_output: usize = observed
                    .parse()
                    .map_err(|_| format!("malformed observed-output index `{observed}`"))?;
                if observed_output >= outputs {
                    return Err(format!(
                        "observed-output index {observed_output} outside 0..{outputs}"
                    ));
                }
                vectors.push(TestVector {
                    assignment: assignment_of(pattern, width)?,
                    fault,
                    observed_output,
                });
            }
            _ => return Err(format!("malformed vector record `v {rest}`")),
        }
    }
    reader.done()?;
    Ok(AtpgReport {
        circuit,
        total_faults,
        detected,
        untestable,
        degraded,
        aborted,
        vectors,
        cpu,
        constrained,
    })
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// When a checkpoint-armed campaign flushes its journal to disk.
///
/// Regardless of the knobs below, an armed campaign always writes one final
/// checkpoint when it completes, so a finished run can always be reloaded
/// (e.g. to re-attempt its aborted faults with a bigger budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Flush after every `every` decided fault targets (`0` disables the
    /// periodic flushes).
    pub every: usize,
    /// Flush immediately when a fault is abandoned over a budget or an
    /// isolated panic.
    pub on_abort: bool,
    /// Flush when the governing cancel token first fires (deadline or step
    /// quota) — the moment an interrupted campaign starts producing
    /// `Aborted(Deadline)` tails.
    pub on_cancel: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every: 64,
            on_abort: true,
            on_cancel: true,
        }
    }
}

/// Digest of a fault list, stored in every checkpoint so a snapshot can
/// never be replayed against a different fault universe.
pub fn faults_digest(faults: &[StuckAtFault]) -> u64 {
    let mut bytes = Vec::with_capacity(faults.len() * 9);
    for fault in faults {
        bytes.extend_from_slice(&(fault.signal.index() as u64).to_le_bytes());
        bytes.push(u8::from(fault.stuck_at));
    }
    fnv1a64(&bytes)
}

/// A campaign snapshot: the per-fault outcomes of a contiguous prefix of
/// the fault list, in fault-list order.
///
/// Outcomes are journaled at the governed gc+reset boundaries, where each
/// one is a pure function of its fault — which is why resuming from a
/// checkpoint reproduces the uninterrupted report byte-for-byte (see
/// [`DigitalAtpg::with_resume`](crate::DigitalAtpg::with_resume)).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Circuit the campaign ran on.
    pub circuit: String,
    /// Length of the full fault list.
    pub total_faults: usize,
    /// [`faults_digest`] of the full fault list.
    pub faults_digest: u64,
    /// Outcomes of fault-list entries `0..outcomes.len()`.
    pub outcomes: Vec<TestOutcome>,
}

/// Persists a checkpoint atomically.
pub fn save_checkpoint(path: &Path, checkpoint: &Checkpoint) -> Result<(), StoreError> {
    save_checkpoint_chaotic(path, checkpoint, None)
}

/// [`save_checkpoint`] with a chaos site attached (the engine passes its
/// injector and the index of the outcome that triggered the flush).
pub(crate) fn save_checkpoint_chaotic(
    path: &Path,
    checkpoint: &Checkpoint,
    chaos: Option<(&ChaosInjector, u64)>,
) -> Result<(), StoreError> {
    atomic_write_chaotic(
        path,
        &envelope("checkpoint", &checkpoint_payload(checkpoint)),
        chaos,
    )
}

fn checkpoint_payload(checkpoint: &Checkpoint) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "circuit {}\n",
        checkpoint.circuit.replace(['\n', '\r'], " ")
    ));
    out.push_str(&format!("total_faults {}\n", checkpoint.total_faults));
    out.push_str(&format!(
        "faults_digest {:016x}\n",
        checkpoint.faults_digest
    ));
    out.push_str(&format!("outcomes {}\n", checkpoint.outcomes.len()));
    for outcome in &checkpoint.outcomes {
        match outcome {
            TestOutcome::Detected(v) => out.push_str(&format!(
                "d {} {}\n",
                v.observed_output,
                pattern_of(&v.assignment)
            )),
            TestOutcome::PreviouslyDetected => out.push_str("p\n"),
            TestOutcome::Untestable => out.push_str("x\n"),
            TestOutcome::Degraded(v) => out.push_str(&format!(
                "g {} {}\n",
                v.observed_output,
                pattern_of(&v.assignment)
            )),
            TestOutcome::Aborted(reason) => out.push_str(&format!("a {}\n", abort_code(*reason))),
        }
    }
    out
}

/// Loads and validates a checkpoint against the campaign it will resume.
///
/// The snapshot must name the same circuit, declare the same fault-list
/// length and digest, and every stored vector must fit the circuit's
/// primary-input/-output counts; each outcome's fault is re-bound to the
/// corresponding `faults` entry.  Any disagreement is
/// [`StoreError::Corrupt`].
pub fn load_checkpoint(
    path: &Path,
    netlist: &Netlist,
    faults: &[StuckAtFault],
) -> Result<Checkpoint, StoreError> {
    let payload = read_envelope(path, "checkpoint")?;
    parse_checkpoint(&payload, netlist, faults).map_err(|reason| corrupt(path, reason))
}

fn parse_checkpoint(
    payload: &str,
    netlist: &Netlist,
    faults: &[StuckAtFault],
) -> Result<Checkpoint, String> {
    let width = netlist.primary_inputs().len();
    let outputs = netlist.primary_outputs().len();
    let mut reader = LineReader::new(payload);
    let circuit = reader.keyword("circuit")?.to_owned();
    if circuit != netlist.name() {
        return Err(format!(
            "checkpoint is for circuit `{circuit}`, campaign runs on `{}`",
            netlist.name()
        ));
    }
    let total_faults = reader.count("total_faults")?;
    if total_faults != faults.len() {
        return Err(format!(
            "checkpoint covers a {total_faults}-fault list, campaign has {}",
            faults.len()
        ));
    }
    let digest_raw = reader.keyword("faults_digest")?;
    let digest = u64::from_str_radix(digest_raw, 16)
        .map_err(|_| format!("malformed faults digest `{digest_raw}`"))?;
    let expected_digest = faults_digest(faults);
    if digest != expected_digest {
        return Err(format!(
            "fault-list digest mismatch (stored {digest:016x}, campaign {expected_digest:016x})"
        ));
    }
    let outcome_count = reader.count("outcomes")?;
    if outcome_count > faults.len() {
        return Err(format!(
            "{outcome_count} outcomes recorded for a {}-fault list",
            faults.len()
        ));
    }
    let mut outcomes = Vec::with_capacity(outcome_count);
    let vector = |rest: &str, index: usize| -> Result<TestVector, String> {
        let (observed, pattern) = rest
            .split_once(' ')
            .ok_or_else(|| format!("malformed vector record `{rest}`"))?;
        let observed_output: usize = observed
            .parse()
            .map_err(|_| format!("malformed observed-output index `{observed}`"))?;
        if observed_output >= outputs {
            return Err(format!(
                "observed-output index {observed_output} outside 0..{outputs}"
            ));
        }
        let fault = *faults
            .get(index)
            .ok_or_else(|| format!("outcome {index} beyond the fault list"))?;
        Ok(TestVector {
            assignment: assignment_of(pattern, width)?,
            fault,
            observed_output,
        })
    };
    for index in 0..outcome_count {
        let line = reader.next_line()?;
        let (code, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r),
            None => (line, ""),
        };
        let outcome = match code {
            "d" => TestOutcome::Detected(vector(rest, index)?),
            "g" => TestOutcome::Degraded(vector(rest, index)?),
            "p" if rest.is_empty() => TestOutcome::PreviouslyDetected,
            "x" if rest.is_empty() => TestOutcome::Untestable,
            "a" => TestOutcome::Aborted(abort_of(rest)?),
            _ => return Err(format!("malformed outcome record `{line}`")),
        };
        outcomes.push(outcome);
    }
    reader.done()?;
    Ok(Checkpoint {
        circuit,
        total_faults,
        faults_digest: digest,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msatpg_digital::circuits;
    use msatpg_digital::fault::FaultList;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no timestamps: pid + counter).
    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("msatpg-store-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn envelope_rejects_every_corruption_structurally() {
        let dir = scratch("envelope");
        let path = dir.join("x.report");
        let netlist = circuits::figure3_circuit();
        let report = crate::DigitalAtpg::new(&netlist)
            .run(&FaultList::collapsed(&netlist))
            .unwrap();
        save_report(&path, &netlist, &report).unwrap();
        let good = fs::read(&path).unwrap();
        let reloaded = load_report(&path, &netlist).unwrap();
        assert_eq!(
            report_payload(&netlist, &reloaded),
            report_payload(&netlist, &report)
        );

        // Missing file -> Io.
        let missing = load_report(&dir.join("nope.report"), &netlist).unwrap_err();
        assert!(matches!(missing, StoreError::Io { .. }), "{missing}");

        // Truncations at every byte length never panic; short payloads are
        // Truncated, a cut inside the header is Truncated/Corrupt.
        for keep in 0..good.len() {
            fs::write(&path, &good[..keep]).unwrap();
            let err = load_report(&path, &netlist).unwrap_err();
            assert!(
                !matches!(err, StoreError::Io { .. }),
                "cut at {keep}: expected a structural error, got {err}"
            );
        }

        // Every single-bit flip is caught.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert!(load_report(&path, &netlist).is_err(), "flip at byte {byte}");
        }

        // Wrong version -> VersionMismatch.
        let text = String::from_utf8(good.clone()).unwrap();
        let wrong = text.replacen("msatpg-store 1 ", "msatpg-store 999 ", 1);
        fs::write(&path, wrong).unwrap();
        let err = load_report(&path, &netlist).unwrap_err();
        assert!(
            matches!(
                &err,
                StoreError::VersionMismatch { expected: 1, found, .. } if found == "999"
            ),
            "{err}"
        );

        // Wrong artifact kind -> Corrupt (with the right checksum, even).
        fs::write(&path, envelope("checkpoint", "not a report")).unwrap();
        let err = load_report(&path, &netlist).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

        // Garbage -> Corrupt, never a panic.
        fs::write(&path, b"complete garbage\nwith lines\n").unwrap();
        assert!(load_report(&path, &netlist).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_validation() {
        let dir = scratch("ckpt");
        let path = dir.join("run.ckpt");
        let netlist = circuits::figure3_circuit();
        let faults = FaultList::collapsed(&netlist);
        let width = netlist.primary_inputs().len();
        let outcomes = vec![
            TestOutcome::Detected(TestVector {
                assignment: vec![Some(true); width],
                fault: faults.faults()[0],
                observed_output: 0,
            }),
            TestOutcome::PreviouslyDetected,
            TestOutcome::Untestable,
            TestOutcome::Aborted(AbortReason::Deadline),
        ];
        let checkpoint = Checkpoint {
            circuit: netlist.name().to_owned(),
            total_faults: faults.len(),
            faults_digest: faults_digest(faults.faults()),
            outcomes,
        };
        save_checkpoint(&path, &checkpoint).unwrap();
        let loaded = load_checkpoint(&path, &netlist, faults.faults()).unwrap();
        assert_eq!(loaded, checkpoint);

        // A checkpoint never resumes a different fault universe.
        let other = circuits::adder4();
        let other_faults = FaultList::collapsed(&other);
        let err = load_checkpoint(&path, &other, other_faults.faults()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let trimmed = &faults.faults()[..faults.len() - 1];
        let err = load_checkpoint(&path, &netlist, trimmed).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_writer_survives_injected_store_failures() {
        let dir = scratch("chaos");
        let path = dir.join("victim.ckpt");
        let netlist = circuits::figure3_circuit();
        let faults = FaultList::collapsed(&netlist);
        let checkpoint = Checkpoint {
            circuit: netlist.name().to_owned(),
            total_faults: faults.len(),
            faults_digest: faults_digest(faults.faults()),
            outcomes: vec![TestOutcome::Untestable; 3],
        };
        // Seed a valid previous checkpoint.
        save_checkpoint(&path, &checkpoint).unwrap();

        // Crash mid-write: the destination keeps the previous valid bytes.
        let crash = ChaosInjector::new(7).with_crash_rate(1);
        let newer = Checkpoint {
            outcomes: vec![TestOutcome::Untestable; 4],
            ..checkpoint.clone()
        };
        save_checkpoint_chaotic(&path, &newer, Some((&crash, 0))).unwrap();
        let survived = load_checkpoint(&path, &netlist, faults.faults()).unwrap();
        assert_eq!(survived, checkpoint, "crash must not clobber the old file");

        // Torn write: the destination is now detectably truncated.
        let torn = ChaosInjector::new(7).with_torn_write_rate(1);
        save_checkpoint_chaotic(&path, &newer, Some((&torn, 1))).unwrap();
        let err = load_checkpoint(&path, &netlist, faults.faults()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Corrupt { .. }
            ),
            "{err}"
        );

        // Bit flip: the checksum catches it.
        let flip = ChaosInjector::new(7).with_bit_flip_rate(1);
        save_checkpoint_chaotic(&path, &newer, Some((&flip, 2))).unwrap();
        let err = load_checkpoint(&path, &netlist, faults.faults()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

        // A clean rewrite recovers.
        save_checkpoint(&path, &newer).unwrap();
        assert_eq!(
            load_checkpoint(&path, &netlist, faults.faults()).unwrap(),
            newer
        );
        fs::remove_dir_all(&dir).ok();
    }
}

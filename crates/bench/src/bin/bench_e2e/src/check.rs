//! The post-round checker: run from outside after every round, on what
//! the broker, the mover and Twine left behind. A round with any
//! violation is a failed round.

use ras_core::SolveOutput;

use crate::driver::{RoundRecord, System, PHASE_TIME_LIMIT_S};
use crate::workloads::Workload;

/// Why a round failed the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// The round took longer than the workload's `slo_s`.
    SloExceeded,
    /// A phase ran into the wall-clock limit instead of ending by gap or
    /// stall.
    PhaseLimit,
    /// A phase came back without a clean audit certificate.
    Uncertified,
    /// The target vector does not cover the fleet.
    TargetLength,
    /// An up server's binding differs from its target after the mover ran.
    UnappliedTarget,
    /// A container runs on a down, unbound or job-less-reservation server.
    StrayContainer,
    /// A `*-sat` workload's plan leaves capacity unserved, or softened.
    Shortfall,
}

impl Violation {
    pub const ALL: [Violation; 7] = [
        Violation::SloExceeded,
        Violation::PhaseLimit,
        Violation::Uncertified,
        Violation::TargetLength,
        Violation::UnappliedTarget,
        Violation::StrayContainer,
        Violation::Shortfall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Violation::SloExceeded => "slo_exceeded",
            Violation::PhaseLimit => "phase_limit",
            Violation::Uncertified => "uncertified",
            Violation::TargetLength => "target_length",
            Violation::UnappliedTarget => "unapplied_target",
            Violation::StrayContainer => "stray_container",
            Violation::Shortfall => "shortfall",
        }
    }
}

/// True when every server that runs containers is up and bound to a
/// reservation that jobs run in.
pub fn containers_in_place(system: &System) -> bool {
    system
        .broker
        .iter()
        .filter(|(_, rec)| rec.running_containers > 0)
        .all(|(_, rec)| {
            rec.is_up()
                && rec
                    .current
                    .is_some_and(|r| system.hosts_jobs.get(r.index()) == Some(&true))
        })
}

/// Shortfall below this many RRUs is rounding, not unserved capacity.
const SHORTFALL_EPS: f64 = 1e-6;

pub fn after_round(
    w: &Workload,
    system: &System,
    output: &SolveOutput,
    record: &RoundRecord,
) -> Vec<Violation> {
    let mut found = Vec::new();
    if record.round_s > w.slo_s {
        found.push(Violation::SloExceeded);
    }
    let phases = output.audit_phases();
    if phases.iter().any(|p| p.total_seconds >= PHASE_TIME_LIMIT_S) {
        found.push(Violation::PhaseLimit);
    }
    if !phases.iter().all(|p| p.mip_stats.audit.certified_clean()) {
        found.push(Violation::Uncertified);
    }
    if output.targets.len() != system.region.server_count() {
        found.push(Violation::TargetLength);
    }
    let unapplied = system
        .broker
        .iter()
        .any(|(_, rec)| rec.is_up() && rec.current != rec.target);
    if unapplied {
        found.push(Violation::UnappliedTarget);
    }
    if !containers_in_place(system) {
        found.push(Violation::StrayContainer);
    }
    let softened = phases.iter().any(|p| !p.softened.is_empty());
    if w.satisfiable() && (record.shortfall_rru > SHORTFALL_EPS || softened) {
        found.push(Violation::Shortfall);
    }
    found
}

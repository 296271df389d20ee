//! Move accounting (the data behind Figure 16).

use ras_broker::{ReservationId, SimTime};
use ras_topology::ServerId;

/// Why a server moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveReason {
    /// Executing a solver target.
    SolverTarget,
    /// Replacing a failed server from the shared buffer.
    FailureReplacement,
    /// Loaning an idle server to an elastic reservation.
    ElasticLoan,
    /// Revoking an elastic loan.
    ElasticRevoke,
    /// Emergency out-of-band grant.
    Emergency,
}

/// One executed move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveRecord {
    /// The server that moved.
    pub server: ServerId,
    /// Binding before.
    pub from: Option<ReservationId>,
    /// Binding after.
    pub to: Option<ReservationId>,
    /// When the move completed.
    pub at: SimTime,
    /// Whether containers had to be preempted (in-use move).
    pub in_use: bool,
    /// Why the move happened.
    pub reason: MoveReason,
}

/// Append-only log of executed moves with hourly aggregation helpers.
#[derive(Debug, Clone, Default)]
pub struct MoveLog {
    records: Vec<MoveRecord>,
}

impl MoveLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: MoveRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[MoveRecord] {
        &self.records
    }

    /// `(in_use, unused)` move counts per hour bucket over `[0, hours)`.
    pub fn hourly_counts(&self, hours: u64) -> Vec<(usize, usize)> {
        let mut out = vec![(0usize, 0usize); hours as usize];
        for r in &self.records {
            let h = r.at.as_hours();
            if h < hours {
                if r.in_use {
                    out[h as usize].0 += 1;
                } else {
                    out[h as usize].1 += 1;
                }
            }
        }
        out
    }

    /// Total `(in_use, unused)` counts.
    pub fn totals(&self) -> (usize, usize) {
        let in_use = self.records.iter().filter(|r| r.in_use).count();
        (in_use, self.records.len() - in_use)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(hour: u64, in_use: bool) -> MoveRecord {
        MoveRecord {
            server: ServerId(0),
            from: None,
            to: Some(ReservationId::from_index(0)),
            at: SimTime::from_hours(hour),
            in_use,
            reason: MoveReason::SolverTarget,
        }
    }

    #[test]
    fn hourly_buckets() {
        let mut log = MoveLog::new();
        log.push(rec(0, true));
        log.push(rec(0, false));
        log.push(rec(2, false));
        log.push(rec(99, false)); // Outside window: dropped.
        let counts = log.hourly_counts(3);
        assert_eq!(counts, vec![(1, 1), (0, 0), (0, 1)]);
        assert_eq!(log.totals(), (1, 3));
    }
}

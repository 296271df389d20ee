//! Error type for the RAS core.

use ras_broker::ReservationId;

/// Errors surfaced by reservation management and solving.
///
/// Per the paper's "Visibility into optimization decisions" lesson
/// (Section 5.3), rejection reasons carry enough context to be actionable
/// by the requesting service owner.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The spec list and the broker disagree about reservation identifiers.
    SpecMismatch {
        /// Number of specs supplied.
        specs: usize,
        /// Number of reservations the broker knows.
        broker: usize,
    },
    /// A reservation requests hardware that does not exist in the region.
    NoEligibleHardware {
        /// The offending reservation.
        reservation: ReservationId,
    },
    /// A reservation asks for a capacity that is not a finite number
    /// (NaN or ±∞). No plan can meet it: the model would drop a NaN
    /// capacity row and hand the reservation nothing, and an infinite
    /// one can never be satisfied.
    NonFiniteCapacity {
        /// The offending reservation.
        reservation: ReservationId,
        /// The capacity it asked for, in RRUs.
        capacity: f64,
    },
    /// The MIP is infeasible even after softening: the region simply does
    /// not have the requested capacity.
    CapacityUnavailable {
        /// Reservations whose capacity constraint could not be met, with
        /// the RRU shortfall of each.
        shortfalls: Vec<(ReservationId, f64)>,
    },
    /// The underlying MIP solver failed.
    Solver(String),
    /// A broker write failed.
    Broker(String),
    /// A continuous round that entered warm failed mid-solve, and the
    /// [`AsyncSolver`](crate::solver::AsyncSolver) discarded every shard's
    /// warm state (LP basis and its names, seed targets) and the round
    /// numbering. The solver itself remains usable: the next `solve` runs
    /// cold, exactly like a fresh solver's round 0.
    SessionInvalidated {
        /// 0-based index of the round that failed.
        round: usize,
        /// The underlying failure.
        cause: Box<CoreError>,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::SpecMismatch { specs, broker } => write!(
                f,
                "reservation specs ({specs}) do not match broker registrations ({broker})"
            ),
            CoreError::NoEligibleHardware { reservation } => {
                write!(f, "{reservation} requests hardware absent from the region")
            }
            CoreError::NonFiniteCapacity {
                reservation,
                capacity,
            } => write!(
                f,
                "{reservation} requests a non-finite capacity ({capacity} RRU)"
            ),
            CoreError::CapacityUnavailable { shortfalls } => {
                write!(f, "insufficient regional capacity:")?;
                for (r, s) in shortfalls {
                    write!(f, " {r} short {s:.1} RRU;")?;
                }
                Ok(())
            }
            CoreError::Solver(msg) => write!(f, "solver failure: {msg}"),
            CoreError::Broker(msg) => write!(f, "broker failure: {msg}"),
            CoreError::SessionInvalidated { round, cause } => write!(
                f,
                "continuous round {round} failed ({cause}); warm state dropped — \
                 the next round solves cold"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = CoreError::CapacityUnavailable {
            shortfalls: vec![(ReservationId(2), 12.5)],
        };
        let msg = e.to_string();
        assert!(msg.contains("R2"));
        assert!(msg.contains("12.5"));
    }
}

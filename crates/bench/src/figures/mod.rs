//! One module per figure, table or ablation of the paper's evaluation,
//! each a `run(Shape) -> Vec<Experiment>`, the table [`FIGURES`] that
//! names them by experiment id, and the [`drive`]r that runs them.

use std::panic::catch_unwind;

use ras_broker::{BrokerError, ResourceBroker, SimTime};
use ras_core::classes::Granularity;
use ras_core::phases::run_phase;
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_core::{buffers, CoreError, SolverParams};
use ras_topology::{Region, ServerId};

use crate::{Experiment, Shape};

pub mod ablation_phases;
pub mod ablation_stability;
pub mod ablation_symmetry;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig_continuous;
pub mod fig_farb;
pub mod fig_scale;
pub mod tab_buffers;

/// A figure the driver can run: the id of the first experiment it
/// returns, and the function regenerating it.
pub type Figure = (&'static str, fn(Shape) -> Vec<Experiment>);

/// Every figure, in the order `all` runs them. `fig10` also returns
/// Figure 11.
pub const FIGURES: &[Figure] = &[
    ("fig02", fig02::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("tab_buffers", tab_buffers::run),
    ("fig_continuous", fig_continuous::run),
    ("fig_farb", fig_farb::run),
    ("fig_scale", fig_scale::run),
    ("ablation_phases", ablation_phases::run),
    ("ablation_stability", ablation_stability::run),
    ("ablation_symmetry", ablation_symmetry::run),
];

/// Runs the figures of `table` that `args` name (`[--smoke] <id>…|all`),
/// handing every experiment to `sink` as its figure finishes. A figure
/// that fails a gate or panics does not stop the rest; the result is an
/// error naming every one that did. An unknown id fails before any
/// figure runs, with the list of valid ids.
pub fn drive(
    table: &[Figure],
    args: &[String],
    sink: &mut dyn FnMut(&Experiment),
) -> Result<(), String> {
    let valid = || {
        let ids: Vec<_> = table.iter().map(|(id, _)| *id).collect();
        format!("valid ids: {}, or all", ids.join(" "))
    };
    let mut shape = Shape::Full;
    let mut chosen: Vec<&Figure> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--smoke" => shape = Shape::Smoke,
            "all" => chosen.extend(table),
            id => match table.iter().find(|(known, _)| *known == id) {
                Some(figure) => chosen.push(figure),
                None => return Err(format!("unknown figure {id:?}; {}", valid())),
            },
        }
    }
    if chosen.is_empty() {
        return Err(format!("usage: figures [--smoke] <id>…|all; {}", valid()));
    }
    let mut failed = Vec::new();
    for &(id, run) in chosen {
        match catch_unwind(|| run(shape)) {
            Ok(experiments) => {
                for exp in &experiments {
                    sink(exp);
                    if !exp.failures.is_empty() {
                        failed.push(exp.id.clone());
                    }
                }
            }
            Err(_) => failed.push(format!("{id} (panicked)")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

/// One partial-rollout step (Figures 12 and 14): RAS manages reservations
/// `0..managed`, every other one turns elastic, and the solve is scoped
/// to the managed reservations' servers and the free pool, less any
/// server `online` rejects. The plan is bound inside that scope.
pub fn rollout_step(
    region: &Region,
    specs: &[ReservationSpec],
    broker: &mut ResourceBroker,
    managed: usize,
    now: SimTime,
    online: impl Fn(ServerId) -> bool,
) -> Result<(), CoreError> {
    let mut scoped = specs.to_vec();
    for spec in &mut scoped[managed..] {
        spec.kind = ReservationKind::Elastic;
    }
    let universe: Vec<ServerId> = broker
        .iter()
        .filter(|(s, r)| r.current.is_none_or(|res| res.index() < managed) && online(*s))
        .map(|(s, _)| s)
        .collect();
    let (targets, _) = run_phase(
        region,
        &scoped,
        &broker.snapshot(now),
        &SolverParams::default(),
        Granularity::Msb,
        false,
        Some(&universe),
    )?;
    for &s in &universe {
        let i = s.index();
        let broker_error = |e: BrokerError| CoreError::Broker(e.to_string());
        if broker.record(s).map_err(broker_error)?.current != targets[i] {
            broker.bind_current(s, targets[i]).map_err(broker_error)?;
        }
    }
    Ok(())
}

/// The demand-weighted hardware-imbalance lower bound on the embedded
/// buffer: [`buffers::optimal_share_bound`] averaged over the guaranteed
/// reservations that carry one, weighted by capacity.
pub fn optimal_share(region: &Region, specs: &[ReservationSpec]) -> f64 {
    let (mut acc, mut weight) = (0.0, 0.0);
    for spec in specs
        .iter()
        .filter(|s| s.kind == ReservationKind::Guaranteed && s.msb_buffer)
    {
        if let Some(b) = buffers::optimal_share_bound(region, spec) {
            acc += b * spec.capacity;
            weight += spec.capacity;
        }
    }
    acc / weight
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn pass(shape: Shape) -> Vec<Experiment> {
        let mut exp = Experiment::new("pass", "t", "t", &["shape"]);
        exp.row(&[format!("{shape:?}")]);
        vec![exp]
    }

    fn fail(_: Shape) -> Vec<Experiment> {
        let mut exp = Experiment::new("fail", "t", "t", &[]);
        exp.fail("gate");
        vec![exp]
    }

    fn panics(_: Shape) -> Vec<Experiment> {
        panic!("figure bug")
    }

    const STUBS: &[Figure] = &[("fail", fail), ("panics", panics), ("pass", pass)];

    fn drive_stubs(args: &[&str]) -> (Result<(), String>, Vec<Experiment>) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut seen = Vec::new();
        let result = drive(STUBS, &args, &mut |e| seen.push(e.clone()));
        (result, seen)
    }

    #[test]
    fn failing_figures_do_not_stop_the_rest() {
        let (result, seen) = drive_stubs(&["--smoke", "all"]);
        let ids: Vec<_> = seen.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["fail", "pass"], "every figure after a failure runs");
        assert_eq!(seen[1].rows, [["Smoke"]]);
        let err = result.expect_err("a failed figure fails the run");
        assert!(
            err.contains("fail") && err.contains("panics (panicked)"),
            "{err}"
        );
        assert!(!err.contains("pass"), "{err}");
    }

    #[test]
    fn passing_figures_pass_at_full_shape() {
        let (result, seen) = drive_stubs(&["pass"]);
        assert_eq!(result, Ok(()));
        assert_eq!(seen[0].rows, [["Full"]]);
    }

    #[test]
    fn unknown_ids_list_the_valid_ones_and_run_nothing() {
        let (result, seen) = drive_stubs(&["pass", "fig99"]);
        let err = result.expect_err("unknown id");
        assert!(err.contains("\"fig99\""), "{err}");
        assert!(err.contains("fail panics pass"), "{err}");
        assert!(seen.is_empty(), "nothing runs before the ids check");
        assert!(drive_stubs(&["--smoke"]).0.is_err(), "no id is an error");
    }

    #[test]
    fn figure_ids_are_unique() {
        let ids: HashSet<_> = FIGURES.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), FIGURES.len());
        assert_eq!(FIGURES.len(), 20);
    }
}

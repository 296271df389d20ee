//! FARB vs best-fit container placement: stranded capacity, evacuation
//! loss, and placement latency.
//!
//! Level-2 placement that stacks by a single dimension (classic
//! best-fit on cores) exhausts one resource while the complement sits
//! free: the host's leftover capacity is *stranded* — nominally free,
//! unusable at the reservation's container grain. This experiment
//! drives both shipped [`ras_twine::PlacementPolicyKind`] policies
//! through three scenarios:
//!
//! 1. **Churn** — 6 continuous rounds (3 at [`Shape::Smoke`]) with 2 %
//!    fleet churn and a mixed cores-heavy/memory-heavy container load
//!    riding on the level-1 solve ([`ras_sim::run_continuous`]).
//! 2. **Failure drill** — an MSB-scale correlated failure with every
//!    victim container evacuated within its reservation
//!    ([`ras_sim::run_failure_drill`]).
//! 3. **Latency scaling** — the identical reservation and load placed
//!    in a tiny and a medium region: the two-level split promises the
//!    candidate scan and placement latency depend on reservation size,
//!    never region size.
//!
//! Both run on the medium region, the tiny one at [`Shape::Smoke`].
//!
//! Reproduction criteria (the figure fails otherwise): FARB's
//! stranded-host fraction (the paper reports 23–36 % of hosts stranded
//! under dimension-blind baselines) must not exceed best-fit's under
//! churn; after the drill FARB must win on both the host fraction and
//! the stranded-capacity fraction; FARB must not lose more evacuees;
//! and the candidate scan must not grow with region size.

use ras_sim::continuous::{run_continuous, ContainerLoad, ContinuousConfig};
use ras_sim::failures::run_failure_drill;
use ras_sim::RoundReport;
use ras_topology::{Region, RegionBuilder, RegionTemplate};
use ras_twine::PlacementPolicyKind;

use crate::{fmt, Experiment, Shape};

const POLICIES: [PlacementPolicyKind; 2] = [
    PlacementPolicyKind::BestFit,
    PlacementPolicyKind::FarbBalance,
];

/// Servers per reservation the churn load is sized for.
const LOAD_SCALE: usize = 30;

/// Mean of a stranded-account metric over the post-submission rounds
/// (round 0 sets the load up; later rounds churn, evacuate, and retry).
fn mean_over_rounds(reports: &[RoundReport], f: impl Fn(&RoundReport) -> f64) -> f64 {
    let tail = if reports.len() > 1 {
        &reports[1..]
    } else {
        reports
    };
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().map(&f).sum::<f64>() / tail.len() as f64
}

/// Places one mixed load on a fixed-size reservation striped across
/// `region` and returns `(p50_us, max_candidates_evaluated)`.
fn placement_probe(region: &Region, members: usize, load: &ContainerLoad) -> (u64, usize) {
    let (_, sched, max_candidates) = load.place_striped(region, members, "probe");
    (sched.latency.percentile(50.0).unwrap_or(0), max_candidates)
}

/// Regenerates the FARB experiment.
pub fn run(shape: Shape) -> Vec<Experiment> {
    let rounds = shape.pick(6, 3);
    let template = shape.pick(RegionTemplate::medium(), RegionTemplate::tiny());
    let region = RegionBuilder::new(template, 23).build();

    let mut exp = Experiment::new(
        "fig_farb",
        "FARB vs best-fit: stranded capacity, evacuation loss, placement latency",
        "fragmentation-aware scoring strands less capacity than best-fit under churn and failure",
        &[
            "scenario",
            "policy",
            "round",
            "containers",
            "stranded_frac",
            "stranded_hosts",
            "evac_moved",
            "evac_lost",
            "p50_us",
            "p99_us",
        ],
    );

    // The benched load disables rack anti-affinity: the anti-affinity
    // tier outranks the policy score, and on large regions (more racks
    // than replicas) it alone would decide every placement — the policy
    // contrast only shows where the *score* drives stacking.
    let bench_load = |policy: PlacementPolicyKind| {
        let mut load = ContainerLoad::mixed(policy, LOAD_SCALE);
        load.rack_anti_affinity = false;
        load
    };

    // Scenario 1: churn rounds with the container load riding along.
    let mut churn_stranded = Vec::new();
    for policy in POLICIES {
        let config = ContinuousConfig {
            rounds,
            churn_fraction: 0.02,
            containers: Some(bench_load(policy)),
            ..ContinuousConfig::default()
        };
        let reports = run_continuous(&region, &config);
        for r in &reports {
            exp.row(&[
                "churn".into(),
                policy.name().into(),
                r.round.to_string(),
                r.container_count.to_string(),
                fmt(r.stranded.fraction(), 4),
                fmt(r.stranded.host_fraction(), 4),
                r.evac_moved.to_string(),
                r.evac_lost.to_string(),
                r.placement_p50_us.map_or("-".into(), |v| v.to_string()),
                r.placement_p99_us.map_or("-".into(), |v| v.to_string()),
            ]);
        }
        let lost: usize = reports.iter().map(|r| r.evac_lost).sum();
        let hosts = mean_over_rounds(&reports, |r| r.stranded.host_fraction());
        exp.note(format!(
            "churn/{}: mean stranded-host fraction {:.1}%, mean capacity fraction {:.4}, {} evacuation losses",
            policy.name(),
            hosts * 100.0,
            mean_over_rounds(&reports, |r| r.stranded.fraction()),
            lost,
        ));
        churn_stranded.push(hosts);
    }

    // Scenario 2: MSB-scale correlated failure with full evacuation.
    let mut drill_stranded = Vec::new();
    let mut drill_hosts = Vec::new();
    let mut drill_lost = Vec::new();
    for policy in POLICIES {
        let load = bench_load(policy);
        let report = run_failure_drill(&region, &load, 0.25);
        exp.row(&[
            "drill".into(),
            report.policy.clone(),
            "-".into(),
            report.containers.to_string(),
            fmt(report.stranded_after.fraction(), 4),
            fmt(report.stranded_after.host_fraction(), 4),
            report.evac_moved.to_string(),
            report.evac_lost.to_string(),
            report
                .placement_p50_us
                .map_or("-".into(), |v| v.to_string()),
            report
                .placement_p99_us
                .map_or("-".into(), |v| v.to_string()),
        ]);
        exp.note(format!(
            "drill/{}: {} containers on the failed MSB ({} servers), {} moved, {} lost, stranded {:.4} -> {:.4}",
            report.policy,
            report.containers_on_msb,
            report.msb_servers,
            report.evac_moved,
            report.evac_lost,
            report.stranded_before.fraction(),
            report.stranded_after.fraction(),
        ));
        drill_stranded.push(report.stranded_after.fraction());
        drill_hosts.push(report.stranded_after.host_fraction());
        drill_lost.push(report.evac_lost);
    }

    // Scenario 3: identical reservation + load in a tiny vs medium
    // region — candidate scans and latency must track reservation size.
    let members = 36;
    let tiny = RegionBuilder::new(RegionTemplate::tiny(), 7).build();
    let medium = RegionBuilder::new(RegionTemplate::medium(), 7).build();
    let probe_load = ContainerLoad::mixed(PlacementPolicyKind::FarbBalance, members / 3);
    let (p50_tiny, cand_tiny) = placement_probe(&tiny, members, &probe_load);
    let (p50_medium, cand_medium) = placement_probe(&medium, members, &probe_load);
    exp.note(format!(
        "latency independence: {}-member reservation placed in tiny ({} servers, p50 {}us, {} candidates/call) \
         vs medium ({} servers, p50 {}us, {} candidates/call)",
        members,
        tiny.server_count(),
        p50_tiny,
        cand_tiny,
        medium.server_count(),
        p50_medium,
        cand_medium,
    ));

    // Gates. FARB is index 1, best-fit index 0.
    for (what, when, v) in [
        ("hosts", "under churn", &churn_stranded),
        ("hosts", "after the drill", &drill_hosts),
        ("capacity", "after the drill", &drill_stranded),
    ] {
        if v[1] > v[0] + 1e-9 {
            exp.fail(format!(
                "FARB strands more {what} than best-fit {when} ({:.4} > {:.4})",
                v[1], v[0]
            ));
        }
    }
    if drill_lost[1] > drill_lost[0] {
        exp.fail(format!(
            "FARB lost more evacuees than best-fit ({} > {})",
            drill_lost[1], drill_lost[0]
        ));
    }
    if cand_medium > cand_tiny {
        exp.fail(format!(
            "candidate scan grew with region size ({cand_medium} > {cand_tiny})"
        ));
    }
    vec![exp]
}

//! Event-wheel ⇄ dense-drive equivalence suite.
//!
//! The §5h event wheel is a pure wall-clock optimization: skipping a
//! quiet span must leave every architecturally visible outcome —
//! [`mcr_dram::RunReport`], telemetry histograms, the completion cycle —
//! bit-identical to executing the same span one memory cycle at a time.
//! These tests run the same seeded config under both drives
//! ([`System::set_skip_ahead`] selects the reference dense drive) and
//! compare the full reports with `assert_eq!`. Any drift here is a
//! missing or late wheel edge, never a tolerance question.

use mcr_dram::{FaultPlan, McrMode, RunReport, System, SystemConfig};
use mem_controller::{EdgeSource, RowPolicy, SchedulerKind};
use trace_gen::multi_programmed_mixes;

const LEN: usize = 8_000;

fn mode(m: u32, k: u32) -> McrMode {
    mode_at(m, k, 1.0)
}

fn mode_at(m: u32, k: u32, region: f64) -> McrMode {
    McrMode::new(m, k, region).expect("valid Table 1 mode")
}

/// Runs `cfg` under the event wheel and under the dense reference drive;
/// returns both reports for comparison.
fn wheel_and_dense(cfg: &SystemConfig) -> (RunReport, RunReport) {
    let wheel = System::build(cfg).run();
    let mut dense = System::build(cfg);
    dense.set_skip_ahead(false);
    (wheel, dense.run())
}

fn assert_identical(label: &str, cfg: &SystemConfig) {
    let (wheel, dense) = wheel_and_dense(cfg);
    assert_eq!(wheel, dense, "{label}: wheel and dense reports differ");
}

#[test]
fn all_mcr_modes_are_wheel_identical() {
    let cases = [
        ("off", McrMode::off()),
        ("1_2x", mode(1, 2)),
        ("2_2x", mode(2, 2)),
        ("1_4x", mode(1, 4)),
        ("2_4x", mode(2, 4)),
        ("4_4x", mode(4, 4)),
    ];
    for (label, m) in cases {
        let cfg = SystemConfig::single_core("libq", LEN).with_mode(m);
        assert_identical(label, &cfg);
    }
}

#[test]
fn combined_region_config_is_wheel_identical() {
    let cfg = SystemConfig::single_core("libq", LEN)
        .with_combined_regions(4, 0.25, 2, 0.25)
        .with_alloc_ratio(0.20);
    assert_identical("combined_4x25_2x25", &cfg);
}

#[test]
fn fault_campaigns_are_wheel_identical() {
    // Nonzero rates on every fault class: dropped and late refreshes
    // interact directly with the wheel's refresh-deadline edges.
    for seed in [7, 2015] {
        let plan = FaultPlan::chaos(seed, 0.05);
        let cfg = SystemConfig::single_core("mummer", LEN)
            .with_mode(mode(2, 2))
            .with_fault_plan(plan)
            .with_seed(seed);
        assert_identical("chaos campaign", &cfg);
    }
}

#[test]
fn powerdown_thresholds_are_wheel_identical() {
    // Power-down entry/exit is the idle-heaviest path the wheel skips
    // across; the entry threshold and pending-entry retries are edges.
    for threshold in [64, 256, 4096] {
        let cfg = SystemConfig::single_core("libq", LEN)
            .with_mode(mode(1, 2))
            .with_powerdown(threshold);
        assert_identical("powerdown", &cfg);
    }
}

#[test]
fn scheduler_and_row_policy_variants_are_wheel_identical() {
    let fcfs = SystemConfig::single_core("libq", LEN)
        .with_mode(mode(2, 2))
        .with_scheduler(SchedulerKind::Fcfs);
    assert_identical("fcfs", &fcfs);
    let closed = SystemConfig::single_core("libq", LEN)
        .with_mode(mode(2, 2))
        .with_row_policy(RowPolicy::Closed);
    assert_identical("closed-row", &closed);
}

#[test]
fn multi_core_mix_is_wheel_identical() {
    let mixes = multi_programmed_mixes(2015);
    let cfg = SystemConfig::multi_core(mixes[0].cores, 2_000).with_mode(McrMode::headline());
    assert_identical(mixes[0].name, &cfg);
}

#[test]
fn idle_sweep_shape_is_wheel_identical() {
    // Low-MPKI profiles with rank power-down armed: most cycles are
    // skipped, and refresh release/quiesce edges end many of the jumps.
    for workload in ["black", "face"] {
        for (label, m) in [("1/2x/100", mode(1, 2)), ("1/4x/50", mode_at(1, 4, 0.5))] {
            let cfg = SystemConfig::single_core(workload, 6_000)
                .with_mode(m)
                .with_powerdown(64)
                .with_seed(1);
            assert_identical(&format!("{workload} {label} pd64"), &cfg);
        }
    }
}

#[test]
fn loaded_quad_core_mix_is_wheel_identical() {
    let mixes = multi_programmed_mixes(2015);
    let mix01 = mixes
        .iter()
        .find(|m| m.name == "mix01")
        .expect("mix01 is built in");
    let cfg = SystemConfig::multi_core_mix(mix01, 4_000)
        .with_mode(mode(4, 4))
        .with_seed(1);
    assert_identical("mix01 4/4x/100", &cfg);
}

#[test]
fn wheel_wakes_only_where_the_controller_acts() {
    let cfg = SystemConfig::single_core("black", 10_000)
        .with_mode(mode(1, 2))
        .with_powerdown(64);
    let mut wheel = System::build(&cfg);
    assert!(wheel.run_until(u64::MAX), "wheel run did not finish");
    let stats = wheel.wheel_stats().clone();
    let report = wheel.report();
    assert_eq!(
        report,
        System::build(&cfg).run(),
        "counting perturbed the run"
    );
    assert_eq!(
        stats.dense_cycles + stats.skipped_cycles,
        report.total_mem_cycles,
        "every cycle is either executed or skipped"
    );
    // The refresh terms only report edges a REFRESH or quiesce precharge
    // can actually issue at.
    assert!(
        stats.wakes_from(EdgeSource::RefreshRelease) > 0,
        "{stats:?}"
    );
    for source in [EdgeSource::RefreshRelease, EdgeSource::RefreshQuiesce] {
        assert_eq!(
            stats.futile_from(source),
            0,
            "futile {source:?} wakes: {stats:?}"
        );
    }
    assert!(
        stats.total_futile() * 100 < stats.total_wakes(),
        "futile wakes {} of {}",
        stats.total_futile(),
        stats.total_wakes()
    );

    let mut dense = System::build(&cfg);
    dense.set_skip_ahead(false);
    assert!(dense.run_until(u64::MAX));
    let d = dense.wheel_stats();
    assert_eq!((d.attempts, d.skipped_cycles, d.total_wakes()), (0, 0, 0));
    assert_eq!(d.dense_cycles, report.total_mem_cycles);
}

/// Like [`assert_identical`], and also checks that the wheel jumped from
/// active-but-settled cycles, the entry path these cases pin. Returns the
/// report for case-specific checks.
fn assert_settled_identical(label: &str, cfg: &SystemConfig) -> RunReport {
    let mut wheel = System::build(cfg);
    assert!(
        wheel.run_until(u64::MAX),
        "{label}: wheel run did not finish"
    );
    let settled = wheel.wheel_stats().settled_attempts;
    let report = wheel.report();
    let mut dense = System::build(cfg);
    dense.set_skip_ahead(false);
    assert_eq!(
        report,
        dense.run(),
        "{label}: wheel and dense reports differ"
    );
    assert!(settled > 0, "{label}: no jump from an active settled cycle");
    report
}

#[test]
fn write_drain_crossings_are_wheel_identical() {
    // Write-heavy profiles: stream drives the write queue across both
    // drain watermarks (the cycle before each flip is active and not
    // settled); comm2's writes stay below the high watermark.
    let mut drained = Vec::new();
    for workload in ["stream", "comm2"] {
        let cfg = SystemConfig::single_core(workload, 3_000)
            .with_mode(mode(2, 2))
            .with_seed(1);
        let report = assert_settled_identical(&format!("{workload} 2/2x/100"), &cfg);
        drained.push(report.controller.drain_cycles);
    }
    assert!(drained[0] > 0, "stream never drained: {drained:?}");
}

#[test]
fn fcfs_and_closed_row_settled_jumps_are_wheel_identical() {
    // The fold's FCFS branch and the `now + 1` clamp (auto-precharged
    // rows reopen on commands that may already be legal).
    for workload in ["libq", "comm2"] {
        let fcfs = SystemConfig::single_core(workload, 3_000)
            .with_mode(mode(4, 4))
            .with_scheduler(SchedulerKind::Fcfs)
            .with_seed(1);
        assert_settled_identical(&format!("{workload} fcfs"), &fcfs);
        let closed = SystemConfig::single_core(workload, 3_000)
            .with_mode(mode(1, 2))
            .with_row_policy(RowPolicy::Closed)
            .with_seed(1);
        assert_settled_identical(&format!("{workload} closed-row"), &closed);
        let both = closed.with_scheduler(SchedulerKind::Fcfs);
        assert_settled_identical(&format!("{workload} fcfs closed-row"), &both);
    }
}

#[test]
fn powerdown_transitions_after_active_cycles_are_wheel_identical() {
    // Short thresholds put idle-tracking starts, power-down entries and
    // wakes right behind the active cycles that retire a rank's last
    // request or queue a new one.
    for (workload, threshold) in [("libq", 8), ("mummer", 16), ("black", 24)] {
        let cfg = SystemConfig::single_core(workload, 3_000)
            .with_mode(mode(2, 4))
            .with_powerdown(threshold)
            .with_seed(1);
        let report = assert_settled_identical(&format!("{workload} pd{threshold}"), &cfg);
        assert!(
            report.telemetry.powerdown_entries > 0,
            "{workload}: never powered down"
        );
    }
    let mixes = multi_programmed_mixes(2015);
    let cfg = SystemConfig::multi_core(mixes[1].cores, 1_500)
        .with_mode(McrMode::headline())
        .with_powerdown(16)
        .with_seed(1);
    assert_settled_identical(&format!("{} pd16", mixes[1].name), &cfg);
}

#[test]
fn mid_run_mode_change_lands_on_the_same_cycle() {
    // A reconfigure between run_until calls must observe the exact same
    // intermediate state under both drives, and both runs must finish on
    // the same cycle with the same report.
    let cfg = SystemConfig::single_core("libq", LEN).with_mode(mode(4, 4));
    let mut wheel = System::build(&cfg);
    let mut dense = System::build(&cfg);
    dense.set_skip_ahead(false);

    assert_eq!(wheel.run_until(2_500), dense.run_until(2_500));
    assert_eq!(wheel.now(), dense.now(), "mid-run cycle differs");
    assert_eq!(
        wheel.telemetry_snapshot(),
        dense.telemetry_snapshot(),
        "telemetry differs at the reconfigure point"
    );

    // Relax [4/4x] -> [2/2x]: the only legal mode-change direction.
    wheel.reconfigure(mode(2, 2));
    dense.reconfigure(mode(2, 2));

    assert!(wheel.run_until(u64::MAX), "wheel run did not finish");
    assert!(dense.run_until(u64::MAX), "dense run did not finish");
    assert_eq!(wheel.now(), dense.now(), "completion cycle differs");
    assert_eq!(wheel.report(), dense.report(), "post-change reports differ");
}

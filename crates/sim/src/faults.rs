//! Deterministic fault injection: crashes, stragglers, lost records,
//! flaky dispatch — and the dead-letter safety net that bounds them.
//!
//! Opportunistic pools do not merely *preempt* politely (§II-B): workers
//! crash and take the attempt's record with them, tasks hang, completion
//! records get lost in flight, and dispatch RPCs fail transiently. A
//! [`FaultPlan`] describes such an environment as a set of seeded rates;
//! the engine draws every fault from a dedicated RNG stream so a plan of
//! all-zero rates reproduces the fault-free run byte for byte.
//!
//! The plan also carries the *resilience* knobs that keep a faulty run
//! terminating: a per-task attempt budget, a dispatch-retry budget, and an
//! unplaceable-rounds budget. Exceeding any of them routes the task to the
//! dead-letter channel (a terminal, accounted state) instead of spinning
//! forever. [`FaultReport`] summarizes a run under a plan: per-cause fault
//! counts, the dead-letter breakdown, degraded efficiency, and the
//! conservation identity `submitted = completed + dead-lettered`.

use serde::{Deserialize, Serialize};
use tora_alloc::resources::ResourceKind;
use tora_metrics::{pct, CriticalPathStats, Table};

use crate::engine::{SimConfig, SimResult};
use crate::stats::FaultCounts;

/// A seeded description of the fault environment plus the resilience
/// budgets that bound its damage. `FaultPlan::none()` (also the `Default`)
/// disables everything and reproduces the legacy fault-free engine
/// behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Mean seconds between worker crashes (exponential), `None` = never.
    /// A crash is an abrupt departure: running attempts are charged and
    /// counted as failed, unlike a graceful preemption.
    pub crash_mean_interval_s: Option<f64>,
    /// Probability that a dispatched attempt straggles.
    pub straggler_rate: f64,
    /// Runtime stretch factor applied to straggling attempts (≥ 1).
    pub straggler_multiplier: f64,
    /// Wall-clock cap after which a straggling attempt is killed.
    pub straggler_timeout_s: f64,
    /// Probability that a completion's resource record is lost before it
    /// reaches the allocator.
    pub record_dropout_rate: f64,
    /// Probability that a dispatch attempt fails transiently.
    pub dispatch_failure_rate: f64,
    /// Base backoff before a failed dispatch is retried (doubles per
    /// consecutive failure, capped at 2¹⁰×).
    pub dispatch_backoff_s: f64,
    /// Consecutive dispatch failures tolerated per task before it is
    /// dead-lettered. `0` = unbounded.
    pub max_dispatch_retries: usize,
    /// Total attempts (kills, crashes, timeouts) tolerated per task before
    /// it is dead-lettered. `0` = unbounded (legacy behaviour).
    pub max_attempts: usize,
    /// Consecutive engine rounds a ready task may be unplaceable on *every*
    /// live worker before it is dead-lettered. `0` = disabled.
    pub max_unplaceable_rounds: usize,
    /// Mean seconds between *correlated* crash events (exponential),
    /// `None` = never. One event picks a victim worker and takes out every
    /// live worker sharing its rack at once — burst loss, not attrition.
    #[serde(default)]
    pub rack_crash_mean_interval_s: Option<f64>,
    /// Number of failure-domain groups (racks) workers are spread over,
    /// round-robin by join order. `0` = racks disabled (every worker in the
    /// default rack `0`). Required ≥ 2 when rack crashes are enabled, so a
    /// correlated crash never trivially empties the pool.
    #[serde(default)]
    pub rack_count: u32,
    /// Pool-recovery threshold for dead-letter replay, as a fraction of the
    /// largest pool seen so far. When a worker joins and the live pool is at
    /// least `fraction × peak`, replayable dead letters (unplaceable or
    /// dispatch-retries-exhausted) are re-admitted. `0` = replay disabled.
    #[serde(default)]
    pub replay_capacity_fraction: f64,
    /// Times one task may be re-admitted from the dead-letter channel
    /// before it stays dead for good. `0` = replay disabled.
    #[serde(default)]
    pub max_replay_rounds: usize,
    /// Checkpoint/restart: the fraction of a crashed attempt's *finished*
    /// work that survives the crash and is banked toward the retry, in
    /// `[0, 1]`. The retry then runs only the remaining duration, and the
    /// salvaged share is subtracted from the attempt's fault waste. `0`
    /// (the default) disables checkpointing and is byte-inert: a run with
    /// the knob at zero is identical to one that never heard of it.
    #[serde(default)]
    pub checkpointed_fraction: f64,
}

/// Nominal task-seconds a checkpoint can salvage from a dying attempt:
/// the wall-clock it ran, priced at its work rate, clamped to the work the
/// attempt actually had left to do.
pub fn checkpoint_progress_s(elapsed_s: f64, work_rate: f64, remaining_s: f64) -> f64 {
    (elapsed_s * work_rate).min(remaining_s)
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No faults, no budgets: byte-identical to the pre-fault engine.
    pub fn none() -> Self {
        FaultPlan {
            crash_mean_interval_s: None,
            straggler_rate: 0.0,
            straggler_multiplier: 1.0,
            straggler_timeout_s: 0.0,
            record_dropout_rate: 0.0,
            dispatch_failure_rate: 0.0,
            dispatch_backoff_s: 0.0,
            max_dispatch_retries: 0,
            max_attempts: 0,
            max_unplaceable_rounds: 0,
            rack_crash_mean_interval_s: None,
            rack_count: 0,
            replay_capacity_fraction: 0.0,
            max_replay_rounds: 0,
            checkpointed_fraction: 0.0,
        }
    }

    /// Whether any fault source or resilience budget is enabled.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::none()
    }

    /// Validate rates and the cross-field requirements (a straggler rate
    /// needs a multiplier and a timeout; a dispatch-failure rate needs a
    /// backoff; a crash interval must be positive and finite).
    pub fn validate(&self) -> Result<(), String> {
        let unit = |label: &str, v: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{label} must be in [0, 1], got {v}"));
            }
            Ok(())
        };
        unit("straggler_rate", self.straggler_rate)?;
        unit("record_dropout_rate", self.record_dropout_rate)?;
        unit("dispatch_failure_rate", self.dispatch_failure_rate)?;
        if let Some(mean) = self.crash_mean_interval_s {
            if !(mean.is_finite() && mean > 0.0) {
                return Err(format!(
                    "crash_mean_interval_s must be finite and positive, got {mean}"
                ));
            }
        }
        if self.straggler_rate > 0.0 {
            if !(self.straggler_multiplier.is_finite() && self.straggler_multiplier >= 1.0) {
                return Err(format!(
                    "straggler_multiplier must be >= 1, got {}",
                    self.straggler_multiplier
                ));
            }
            if !(self.straggler_timeout_s.is_finite() && self.straggler_timeout_s > 0.0) {
                return Err(format!(
                    "straggler_timeout_s must be positive, got {}",
                    self.straggler_timeout_s
                ));
            }
        }
        if self.dispatch_failure_rate > 0.0
            && !(self.dispatch_backoff_s.is_finite() && self.dispatch_backoff_s > 0.0)
        {
            return Err(format!(
                "dispatch_backoff_s must be positive, got {}",
                self.dispatch_backoff_s
            ));
        }
        if let Some(mean) = self.rack_crash_mean_interval_s {
            if !(mean.is_finite() && mean > 0.0) {
                return Err(format!(
                    "rack_crash_mean_interval_s must be finite and positive, got {mean}"
                ));
            }
            if self.rack_count < 2 {
                return Err(format!(
                    "rack crashes need rack_count >= 2 (one crash must not \
                     trivially empty the pool), got {}",
                    self.rack_count
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.checkpointed_fraction) {
            return Err(format!(
                "checkpointed_fraction must be in [0, 1], got {}",
                self.checkpointed_fraction
            ));
        }
        let replay_on = self.max_replay_rounds > 0 || self.replay_capacity_fraction > 0.0;
        if replay_on {
            if self.max_replay_rounds == 0 {
                return Err("replay needs max_replay_rounds >= 1".to_string());
            }
            if !(self.replay_capacity_fraction > 0.0
                && self.replay_capacity_fraction <= 1.0
                && self.replay_capacity_fraction.is_finite())
            {
                return Err(format!(
                    "replay_capacity_fraction must be in (0, 1], got {}",
                    self.replay_capacity_fraction
                ));
            }
        }
        Ok(())
    }

    /// A named preset, for the CLI. `None` for an unknown name; see
    /// [`FaultPlan::PRESETS`] for the catalogue.
    pub fn named(name: &str) -> Option<Self> {
        let base = FaultPlan {
            max_dispatch_retries: 5,
            max_attempts: 10,
            max_unplaceable_rounds: 3,
            dispatch_backoff_s: 2.0,
            straggler_multiplier: 4.0,
            straggler_timeout_s: 600.0,
            ..FaultPlan::none()
        };
        let plan = match name {
            "none" => FaultPlan::none(),
            "light" => FaultPlan {
                crash_mean_interval_s: Some(120.0),
                straggler_rate: 0.02,
                record_dropout_rate: 0.02,
                dispatch_failure_rate: 0.02,
                ..base
            },
            "heavy" => FaultPlan {
                crash_mean_interval_s: Some(30.0),
                straggler_rate: 0.10,
                straggler_multiplier: 8.0,
                straggler_timeout_s: 300.0,
                record_dropout_rate: 0.10,
                dispatch_failure_rate: 0.10,
                dispatch_backoff_s: 1.0,
                max_attempts: 6,
                ..base
            },
            "crashes" => FaultPlan {
                crash_mean_interval_s: Some(20.0),
                ..base
            },
            "stragglers" => FaultPlan {
                straggler_rate: 0.20,
                straggler_multiplier: 6.0,
                straggler_timeout_s: 240.0,
                ..base
            },
            "flaky-dispatch" => FaultPlan {
                dispatch_failure_rate: 0.25,
                ..base
            },
            "lossy-records" => FaultPlan {
                record_dropout_rate: 0.25,
                ..base
            },
            "rack-outages" => FaultPlan {
                rack_crash_mean_interval_s: Some(90.0),
                rack_count: 4,
                replay_capacity_fraction: 0.75,
                max_replay_rounds: 2,
                ..base
            },
            _ => return None,
        };
        debug_assert!(plan.validate().is_ok());
        Some(plan)
    }

    /// The names accepted by [`FaultPlan::named`].
    pub const PRESETS: [&'static str; 8] = [
        "none",
        "light",
        "heavy",
        "crashes",
        "stragglers",
        "flaky-dispatch",
        "lossy-records",
        "rack-outages",
    ];

    /// A plan whose every fault source scales with one intensity knob in
    /// `[0, 1]` — the x-axis of the `chaos-sweep` degradation curve.
    pub fn with_intensity(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault intensity must be in [0, 1], got {rate}"
        );
        FaultPlan {
            crash_mean_interval_s: (rate > 0.0).then_some(30.0 / rate),
            straggler_rate: rate,
            straggler_multiplier: 4.0,
            straggler_timeout_s: 600.0,
            record_dropout_rate: rate,
            dispatch_failure_rate: rate,
            dispatch_backoff_s: 2.0,
            // A tighter dispatch budget than the presets: at high intensity
            // it produces enough dispatch-retries-exhausted dead letters for
            // the replay path to have something to recover.
            max_dispatch_retries: 3,
            max_attempts: 10,
            max_unplaceable_rounds: 3,
            rack_crash_mean_interval_s: (rate > 0.0).then_some(240.0 / rate),
            rack_count: if rate > 0.0 { 4 } else { 0 },
            replay_capacity_fraction: if rate > 0.0 { 0.6 } else { 0.0 },
            max_replay_rounds: if rate > 0.0 { 2 } else { 0 },
            checkpointed_fraction: 0.0,
        }
    }
}

/// Summary of one run under a [`FaultPlan`]: what was injected, what it
/// cost, and whether the books balance. Serializes deterministically, so
/// two same-seed runs must produce byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// The plan the run executed under.
    pub plan: FaultPlan,
    /// The engine seed (faults draw from `seed ^ FAULT_STREAM`).
    pub seed: u64,
    /// Allocation algorithm label.
    pub algorithm: String,
    /// Tasks submitted to the engine.
    pub submitted: u64,
    /// Tasks that completed successfully.
    pub completed: u64,
    /// Tasks abandoned to the dead-letter channel (final count, after any
    /// replays: a replayed-then-completed task is not counted here).
    pub dead_lettered: u64,
    /// Dead-letter re-admissions performed by the replay path (a task
    /// replayed twice counts twice).
    #[serde(default)]
    pub replayed: u64,
    /// Replayed tasks that went on to complete.
    #[serde(default)]
    pub replay_successes: u64,
    /// `submitted == completed + dead_lettered` — every submitted task
    /// reached exactly one terminal state. With replay, the cumulative form
    /// `submitted = completed + (dead_lettered + replayed) − replayed`
    /// reduces to the same identity because `dead_lettered` is the *final*
    /// count; `replay_successes <= replayed` is checked alongside.
    pub conservation_ok: bool,
    /// Per-cause injected-fault tallies.
    pub faults: FaultCounts,
    /// Dead-letter tallies keyed by cause label, sorted by label.
    pub dead_letter_causes: Vec<(String, u64)>,
    /// Failed attempts of *completed* tasks (fault- and allocation-kills).
    pub retries: u64,
    /// Memory AWE over completed tasks only.
    pub awe_memory: Option<f64>,
    /// Memory AWE charging dead-lettered consumption too (degraded mode).
    pub degraded_awe_memory: Option<f64>,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Crashed attempts that banked a checkpoint (zero unless the plan's
    /// `checkpointed_fraction` is on).
    #[serde(default)]
    pub checkpointed_attempts: u64,
    /// Total nominal task-seconds salvaged by checkpoint/restart.
    #[serde(default)]
    pub salvaged_work_s: f64,
    /// Critical-path accounting, present only for structured (DAG)
    /// workloads so flat-workload reports stay byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub critical_path: Option<CriticalPathStats>,
}

impl FaultReport {
    /// Build the report from a finished run.
    pub fn from_result(result: &SimResult, config: &SimConfig, algorithm: &str) -> Self {
        let stats = &result.stats;
        let dead_lettered = stats.faults.dead_lettered;
        let mut causes: Vec<(String, u64)> = Vec::new();
        for letter in result.metrics.dead_letters() {
            let label = letter.cause.label().to_string();
            match causes.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => causes.push((label, 1)),
            }
        }
        causes.sort();
        FaultReport {
            plan: config.faults,
            seed: config.seed,
            algorithm: algorithm.to_string(),
            submitted: stats.submitted,
            completed: stats.completions,
            dead_lettered,
            replayed: stats.faults.replayed,
            replay_successes: stats.faults.replay_successes,
            conservation_ok: stats.submitted == stats.completions + dead_lettered
                && result.metrics.dead_lettered_count() as u64 == dead_lettered
                && stats.faults.replay_successes <= stats.faults.replayed,
            faults: stats.faults,
            dead_letter_causes: causes,
            retries: result.metrics.total_retries() as u64,
            awe_memory: result.metrics.awe(ResourceKind::MemoryMb),
            degraded_awe_memory: result.metrics.degraded_awe(ResourceKind::MemoryMb),
            makespan_s: result.makespan_s,
            checkpointed_attempts: stats.faults.checkpointed_attempts,
            salvaged_work_s: stats.salvaged_work_s,
            critical_path: stats.critical_path,
        }
    }

    /// Deterministic JSON rendering (field order fixed by the struct).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Aligned-text rendering for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut head = Table::new(
            format!("fault report — {} (seed {})", self.algorithm, self.seed),
            &["metric", "value"],
        );
        head.row(&["submitted".to_string(), self.submitted.to_string()]);
        head.row(&["completed".to_string(), self.completed.to_string()]);
        head.row(&["dead-lettered".to_string(), self.dead_lettered.to_string()]);
        head.row(&["replayed".to_string(), self.replayed.to_string()]);
        head.row(&[
            "replay successes".to_string(),
            self.replay_successes.to_string(),
        ]);
        head.row(&[
            "conservation".to_string(),
            if self.conservation_ok {
                "ok (submitted = completed + dead-lettered)".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
        head.row(&[
            "retries (completed tasks)".to_string(),
            self.retries.to_string(),
        ]);
        let fmt_awe = |v: Option<f64>| v.map(pct).unwrap_or_else(|| "-".to_string());
        head.row(&["memory AWE".to_string(), fmt_awe(self.awe_memory)]);
        head.row(&[
            "memory AWE (degraded)".to_string(),
            fmt_awe(self.degraded_awe_memory),
        ]);
        head.row(&["makespan".to_string(), format!("{:.1} s", self.makespan_s)]);
        if self.plan.checkpointed_fraction > 0.0 {
            head.row(&[
                "checkpointed attempts".to_string(),
                self.checkpointed_attempts.to_string(),
            ]);
            head.row(&[
                "salvaged work".to_string(),
                format!("{:.1} task-s", self.salvaged_work_s),
            ]);
        }
        if let Some(cp) = &self.critical_path {
            head.row(&[
                "critical path (submit)".to_string(),
                format!(
                    "{:.1} s over {} tasks",
                    cp.longest_path_s, cp.longest_path_tasks
                ),
            ]);
            head.row(&[
                "critical path (realized)".to_string(),
                format!("{:.1} s ({:.2}x inflation)", cp.realized_s, cp.inflation),
            ]);
            head.row(&[
                "waste on / off path".to_string(),
                format!(
                    "{:.1} / {:.1} MB*s",
                    cp.on_path_waste_mb_s, cp.off_path_waste_mb_s
                ),
            ]);
        }
        out.push_str(&head.render());

        let f = &self.faults;
        let mut injected = Table::new("injected faults", &["cause", "count"]);
        for (label, count) in [
            ("worker crashes", f.worker_crashes),
            ("rack crashes", f.rack_crashes),
            ("crashed attempts", f.crashed_attempts),
            ("straggler kills", f.straggler_kills),
            ("stragglers (slow, completed)", f.stragglers_slow),
            ("record drops", f.record_drops),
            ("dispatch failures", f.dispatch_failures),
            ("rejected records", f.rejected_records),
            ("capped retries", f.capped_retries),
        ] {
            injected.row(&[label.to_string(), count.to_string()]);
        }
        out.push('\n');
        out.push_str(&injected.render());

        if !self.dead_letter_causes.is_empty() {
            let mut dead = Table::new("dead letters by cause", &["cause", "count"]);
            for (label, count) in &self.dead_letter_causes {
                dead.row(&[label.clone(), count.to_string()]);
            }
            out.push('\n');
            out.push_str(&dead.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert_eq!(plan, FaultPlan::default());
        plan.validate().unwrap();
    }

    #[test]
    fn presets_are_valid_and_active() {
        for name in FaultPlan::PRESETS {
            let plan = FaultPlan::named(name).unwrap();
            plan.validate().unwrap();
            assert_eq!(plan.is_active(), name != "none", "{name}");
        }
        assert!(FaultPlan::named("nope").is_none());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut plan = FaultPlan::none();
        plan.straggler_rate = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::none();
        plan.straggler_rate = 0.1; // needs multiplier/timeout
        plan.straggler_multiplier = 0.5;
        assert!(plan.validate().is_err());
        plan.straggler_multiplier = 2.0;
        assert!(plan.validate().is_err(), "timeout still missing");
        plan.straggler_timeout_s = 60.0;
        plan.validate().unwrap();
        let mut plan = FaultPlan::none();
        plan.dispatch_failure_rate = 0.1; // needs backoff
        assert!(plan.validate().is_err());
        plan.dispatch_backoff_s = 1.0;
        plan.validate().unwrap();
        let mut plan = FaultPlan::none();
        plan.crash_mean_interval_s = Some(0.0);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_rack_and_replay_config() {
        let mut plan = FaultPlan::none();
        plan.rack_crash_mean_interval_s = Some(60.0); // needs rack_count >= 2
        assert!(plan.validate().is_err());
        plan.rack_count = 1;
        assert!(plan.validate().is_err());
        plan.rack_count = 2;
        plan.validate().unwrap();
        plan.rack_crash_mean_interval_s = Some(f64::INFINITY);
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.max_replay_rounds = 1; // needs a capacity fraction
        assert!(plan.validate().is_err());
        plan.replay_capacity_fraction = 1.5;
        assert!(plan.validate().is_err());
        plan.replay_capacity_fraction = 0.5;
        plan.validate().unwrap();
        plan.max_replay_rounds = 0; // fraction without rounds
        assert!(plan.validate().is_err());
    }

    #[test]
    fn intensity_enables_rack_crashes_and_replay_only_when_nonzero() {
        let off = FaultPlan::with_intensity(0.0);
        assert!(off.rack_crash_mean_interval_s.is_none());
        assert_eq!(off.rack_count, 0);
        assert_eq!(off.max_replay_rounds, 0);
        let on = FaultPlan::with_intensity(0.2);
        on.validate().unwrap();
        assert!(on.rack_crash_mean_interval_s.unwrap() > on.crash_mean_interval_s.unwrap());
        assert!(on.rack_count >= 2);
        assert!(on.max_replay_rounds > 0);
        assert!(on.replay_capacity_fraction > 0.0);
    }

    #[test]
    fn intensity_scales_monotonically() {
        FaultPlan::with_intensity(0.0).validate().unwrap();
        let lo = FaultPlan::with_intensity(0.1);
        let hi = FaultPlan::with_intensity(0.4);
        lo.validate().unwrap();
        hi.validate().unwrap();
        assert!(lo.crash_mean_interval_s.unwrap() > hi.crash_mean_interval_s.unwrap());
        assert!(lo.straggler_rate < hi.straggler_rate);
        assert!(lo.record_dropout_rate < hi.record_dropout_rate);
        assert!(FaultPlan::with_intensity(0.0)
            .crash_mean_interval_s
            .is_none());
    }

    #[test]
    fn plan_serde_round_trip() {
        let plan = FaultPlan::named("heavy").unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn checkpoint_fraction_validates_and_defaults_off() {
        // Absent from serialized plans written before the knob existed.
        let legacy: FaultPlan = serde_json::from_str(
            "{
            \"crash_mean_interval_s\": null, \"straggler_rate\": 0.0,
            \"straggler_multiplier\": 1.0, \"straggler_timeout_s\": 0.0,
            \"record_dropout_rate\": 0.0, \"dispatch_failure_rate\": 0.0,
            \"dispatch_backoff_s\": 0.0, \"max_dispatch_retries\": 0,
            \"max_attempts\": 0, \"max_unplaceable_rounds\": 0
        }",
        )
        .unwrap();
        assert_eq!(legacy.checkpointed_fraction, 0.0);
        assert!(!legacy.is_active());
        let mut plan = FaultPlan::none();
        plan.checkpointed_fraction = 0.5;
        plan.validate().unwrap();
        assert!(plan.is_active());
        plan.checkpointed_fraction = 1.5;
        assert!(plan.validate().is_err());
        plan.checkpointed_fraction = f64::NAN;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn checkpoint_progress_prices_and_clamps() {
        // Full speed: salvage is the elapsed wall-clock, capped by what
        // was left to do.
        assert_eq!(checkpoint_progress_s(10.0, 1.0, 30.0), 10.0);
        assert_eq!(checkpoint_progress_s(50.0, 1.0, 30.0), 30.0);
        // A straggler at quarter speed finished a quarter of the time.
        assert_eq!(checkpoint_progress_s(20.0, 0.25, 30.0), 5.0);
        // A hung attempt salvages nothing.
        assert_eq!(checkpoint_progress_s(100.0, 0.0, 30.0), 0.0);
    }
}

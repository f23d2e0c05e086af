//! Command-line scaffolding shared by the `tora` binary.
//!
//! The binary (`src/bin/tora.rs`) keeps the per-command drivers; everything
//! reusable lives here: the flag scanner ([`Args`]) and the parsers that turn
//! raw flag strings into domain values ([`parse_algorithm`],
//! [`parse_workflow`], [`parse_sim_config`]). Keeping these in the library
//! crate lets integration tests exercise argument handling without spawning
//! the binary.

use crate::prelude::*;
use crate::workloads::{io as trace_io, PaperWorkflow};

/// Simple `--flag value` / positional argument scanner.
///
/// Flags take at most one value; a flag followed by another `--flag` is
/// treated as valueless (presence-only). Everything else is positional.
pub struct Args<'a> {
    /// Positional arguments, in order.
    pub positional: Vec<&'a str>,
    /// `(name, value)` pairs for every `--name [value]` seen.
    pub flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Scan raw argv fragments into positionals and `--flag [value]` pairs.
    pub fn parse(raw: &'a [String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = raw.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| v.as_str());
                if value.is_some() {
                    iter.next();
                }
                flags.push((name, value));
            } else {
                positional.push(arg.as_str());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The flag's value slot, if the flag appeared at all.
    pub fn flag(&self, name: &str) -> Option<Option<&str>> {
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The flag's value; an error if the flag appeared without one.
    pub fn value_of(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flag(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(format!("--{name} requires a value")),
        }
    }

    /// `--seed <u64>`, defaulting to 42.
    pub fn seed(&self) -> Result<u64, String> {
        match self.value_of("seed")? {
            None => Ok(42),
            Some(v) => v.parse().map_err(|_| format!("bad --seed `{v}`")),
        }
    }

    /// `--salvage <fraction>`: the checkpointed fraction of finished work a
    /// crashed attempt banks (see `FaultPlan::checkpointed_fraction`).
    /// `None` when the flag is absent; an error outside `[0, 1]`.
    pub fn salvage(&self) -> Result<Option<f64>, String> {
        match self.value_of("salvage")? {
            None => Ok(None),
            Some(v) => {
                let fraction: f64 = v
                    .parse()
                    .ok()
                    .filter(|f: &f64| (0.0..=1.0).contains(f))
                    .ok_or_else(|| format!("bad --salvage `{v}` (a fraction in [0, 1])"))?;
                Ok(Some(fraction))
            }
        }
    }

    /// Whether the flag appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// An error naming the first flag that appears in none of the `accepted`
    /// lists, so a misspelt option fails instead of being ignored.
    pub fn check_flags(&self, accepted: &[&[&str]]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(name, _)| !accepted.iter().any(|list| list.contains(name)))
        {
            None => Ok(()),
            Some((name, _)) => Err(format!("unknown flag `--{name}` (try --help)")),
        }
    }
}

/// Resolve an algorithm label (see `tora algorithms`) to its [`AlgorithmKind`].
pub fn parse_algorithm(name: &str) -> Result<AlgorithmKind, String> {
    AlgorithmKind::ALL
        .into_iter()
        .find(|a| a.label() == name)
        .ok_or_else(|| format!("unknown algorithm `{name}` (see `tora algorithms`)"))
}

/// Resolve a workflow: a `.json` trace file, or a built-in name plus the
/// shaping flags (`--seed`, `--tasks`, `--dag`, `--shape`/`--width`/
/// `--depth`/`--loopback`).
pub fn parse_workflow(name_or_path: &str, args: &Args<'_>) -> Result<Workflow, String> {
    let seed = args.seed()?;
    if name_or_path.ends_with(".json") {
        return trace_io::load(std::path::Path::new(name_or_path)).map_err(|e| e.to_string());
    }
    let tasks: Option<usize> = match args.value_of("tasks")? {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad --tasks `{v}`"))?),
    };
    let by_name = PaperWorkflow::ALL
        .into_iter()
        .find(|w| w.name() == name_or_path)
        .ok_or_else(|| format!("unknown workflow `{name_or_path}` (see `tora workflows`)"))?;
    if let Some(name) = args.value_of("shape")? {
        if args.has("dag") {
            return Err("--shape and --dag are mutually exclusive".into());
        }
        if tasks.is_some() {
            return Err("--shape fixes the task count; drop --tasks".into());
        }
        let width: u32 = match args.value_of("width")? {
            None => 4,
            Some(v) => v.parse().map_err(|_| format!("bad --width `{v}`"))?,
        };
        let depth: u32 = match args.value_of("depth")? {
            None => 8,
            Some(v) => v.parse().map_err(|_| format!("bad --depth `{v}`"))?,
        };
        let loopback: u32 = match args.value_of("loopback")? {
            None => 0,
            Some(v) => v.parse().map_err(|_| format!("bad --loopback `{v}`"))?,
        };
        let shape = DagShape::by_name(name, width, depth)
            .ok_or_else(|| {
                format!(
                    "unknown shape `{name}` (expected one of: {})",
                    crate::workloads::dag::SHAPE_NAMES.join(", ")
                )
            })?
            .with_loopback(loopback);
        return by_name
            .spec(seed)
            .dag_shape(shape)
            .materialize()
            .map_err(|e| e.to_string());
    }
    if args.has("dag") {
        if by_name != PaperWorkflow::TopEft {
            return Err("--dag is only defined for the topeft workflow".into());
        }
        return PaperWorkflow::TopEft
            .spec(seed)
            .dag()
            .materialize()
            .map_err(|e| e.to_string());
    }
    match (by_name, tasks) {
        (_, None) => Ok(by_name.build(seed)),
        (PaperWorkflow::ColmenaXtb | PaperWorkflow::TopEft, Some(_)) => {
            Err("--tasks applies only to synthetic workflows".into())
        }
        (wf, Some(n)) => wf
            .spec(seed)
            .tasks(n)
            .materialize()
            .map_err(|e| e.to_string()),
    }
}

/// Build a [`SimConfig`] from the common simulation flags (`--seed`,
/// `--workers`, `--arrival`, `--policy`, `--enforcement`, `--mix`).
pub fn parse_sim_config(args: &Args<'_>) -> Result<SimConfig, String> {
    let mut config = SimConfig::paper_like(args.seed()?);
    match args.value_of("workers")? {
        None | Some("paper") => {}
        Some(spec) => {
            let n: usize = spec
                .strip_prefix("fixed:")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("bad --workers `{spec}` (fixed:<n> | paper)"))?;
            if n == 0 {
                return Err("--workers fixed:<n> requires n ≥ 1".into());
            }
            config.churn = ChurnConfig::fixed(n);
        }
    }
    match args.value_of("arrival")? {
        None => {}
        Some("batch") => config.arrival = ArrivalModel::Batch,
        Some(spec) => {
            let mean: f64 = spec
                .strip_prefix("poisson:")
                .and_then(|m| m.parse().ok())
                .filter(|m: &f64| m.is_finite() && *m > 0.0)
                .ok_or_else(|| format!("bad --arrival `{spec}` (batch | poisson:<mean-s>)"))?;
            config.arrival = ArrivalModel::Poisson {
                mean_interval_s: mean,
            };
        }
    }
    match args.value_of("policy")? {
        None => {}
        Some(name) => {
            config.queue_policy = QueuePolicy::ALL
                .into_iter()
                .find(|p| p.label() == name)
                .ok_or_else(|| format!("unknown --policy `{name}`"))?;
        }
    }
    match args.value_of("enforcement")? {
        None | Some("ramp") => {}
        Some("instant") => config.enforcement = EnforcementModel::InstantPeak,
        Some(other) => return Err(format!("unknown --enforcement `{other}` (ramp | instant)")),
    }
    if let Some(spec) = args.value_of("mix")? {
        let (frac, scale) = spec
            .split_once(':')
            .and_then(|(f, s)| Some((f.parse().ok()?, s.parse().ok()?)))
            .ok_or_else(|| format!("bad --mix `{spec}` (use <fraction>:<scale>)"))?;
        let mix = crate::sim::WorkerMix {
            large_fraction: frac,
            scale,
        };
        mix.validate()?;
        config.worker_mix = Some(mix);
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_positionals_scan() {
        let raw = raw(&["bimodal", "--seed", "7", "--quick", "--tasks", "120"]);
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.positional, vec!["bimodal"]);
        assert_eq!(args.seed().unwrap(), 7);
        assert!(args.has("quick"));
        assert_eq!(args.value_of("tasks").unwrap(), Some("120"));
        assert!(!args.has("salvage"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let raw = raw(&["bimodal", "--seed", "7", "--quick"]);
        let args = Args::parse(&raw).unwrap();
        assert!(args.check_flags(&[&["seed", "tasks"], &["quick"]]).is_ok());
        let err = args.check_flags(&[&["seed", "tasks"]]).unwrap_err();
        assert!(err.contains("unknown flag `--quick`"), "{err}");
    }

    #[test]
    fn salvage_parses_and_validates() {
        let ok = raw(&["--salvage", "0.5"]);
        assert_eq!(Args::parse(&ok).unwrap().salvage().unwrap(), Some(0.5));
        let absent = raw(&["--quick"]);
        assert_eq!(Args::parse(&absent).unwrap().salvage().unwrap(), None);
        for bad in [
            &["--salvage", "1.5"][..],
            &["--salvage", "nan"],
            &["--salvage"],
        ] {
            let bad = raw(bad);
            assert!(Args::parse(&bad).unwrap().salvage().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn algorithm_and_workflow_parse() {
        assert_eq!(
            parse_algorithm("greedy-bucketing").unwrap(),
            AlgorithmKind::GreedyBucketing
        );
        assert!(parse_algorithm("nope").is_err());
        let raw = raw(&["--tasks", "50", "--seed", "3"]);
        let args = Args::parse(&raw).unwrap();
        let wf = parse_workflow("bimodal", &args).unwrap();
        assert_eq!(wf.len(), 50);
        assert!(parse_workflow("nope", &args).is_err());
    }

    #[test]
    fn shape_flags_parse_and_conflict() {
        // Defaults: width 4, depth 8, no loop-back → diamond is 4*8+2 tasks.
        let diamond = raw(&["--shape", "diamond", "--seed", "3"]);
        let args = Args::parse(&diamond).unwrap();
        let wf = parse_workflow("bimodal", &args).unwrap();
        assert_eq!(wf.len(), 34);
        assert!(wf.has_dependencies());

        let pipeline = raw(&["--shape", "pipeline", "--depth", "12", "--loopback", "0"]);
        let args = Args::parse(&pipeline).unwrap();
        let wf = parse_workflow("exponential", &args).unwrap();
        assert_eq!(wf.len(), 12);

        for bad in [
            &["--shape", "moebius"][..],
            &["--shape", "diamond", "--dag"],
            &["--shape", "diamond", "--tasks", "50"],
            &["--shape", "diamond", "--width", "wide"],
        ] {
            let raw = raw(bad);
            let args = Args::parse(&raw).unwrap();
            assert!(parse_workflow("bimodal", &args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sim_config_flags_parse() {
        let raw = raw(&[
            "--seed",
            "9",
            "--workers",
            "fixed:12",
            "--arrival",
            "batch",
            "--enforcement",
            "instant",
        ]);
        let args = Args::parse(&raw).unwrap();
        let config = parse_sim_config(&args).unwrap();
        assert_eq!(config.churn.initial, 12);
        assert!(matches!(config.arrival, ArrivalModel::Batch));
        assert!(matches!(config.enforcement, EnforcementModel::InstantPeak));
        let bad = vec!["--workers".to_string(), "fixed:0".to_string()];
        assert!(parse_sim_config(&Args::parse(&bad).unwrap()).is_err());
    }
}

//! The registry of paper artifacts behind `tora experiments`.
//!
//! Every artifact is a plain function from an [`ExperimentConfig`] to an
//! [`Artifact`]: the tables it renders and the raw data files it can dump.
//! Argument parsing, the output directory and the fan-out across artifacts
//! belong to the caller (the `tora experiments` subcommand); the artifact
//! functions fan their own independent cells over [`crate::pool`], so the
//! rendered bytes never depend on the thread count.

use serde::Serialize;

/// Inputs shared by every artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Seed for workload generation, allocation sampling and churn.
    pub seed: u64,
    /// Consecutive seeds (from `seed`) that Figure 5 averages over; `1`
    /// prints single-run cells.
    pub seeds: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { seed: 42, seeds: 1 }
    }
}

/// One rendered artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Artifact {
    /// The rendered tables, exactly as printed.
    pub text: String,
    /// Raw data as `(file name, contents)`, written only on request.
    pub files: Vec<(String, String)>,
}

impl Artifact {
    /// Append a rendered table followed by a blank line.
    pub(crate) fn table(&mut self, table: &tora_metrics::Table) {
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Attach a data file.
    pub(crate) fn file(&mut self, name: impl Into<String>, contents: String) {
        self.files.push((name.into(), contents));
    }

    /// Attach `value` as a pretty-printed JSON data file.
    pub(crate) fn json<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        let json = serde_json::to_string_pretty(value).expect("artifact data serializes");
        self.file(name, json);
    }
}

/// One named artifact.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `tora experiments` selects it by.
    pub name: &'static str,
    /// Whether the rendered text is a pure function of the config. Table I
    /// reports wall-clock timings, so it is the one exception.
    pub deterministic: bool,
    /// Produce the artifact.
    pub run: fn(&ExperimentConfig) -> Artifact,
}

const fn entry(
    name: &'static str,
    deterministic: bool,
    run: fn(&ExperimentConfig) -> Artifact,
) -> Experiment {
    Experiment {
        name,
        deterministic,
        run,
    }
}

/// Every artifact, in the order `tora experiments all` renders them.
pub const EXPERIMENTS: [Experiment; 9] = [
    entry("fig2", true, crate::figures::fig2),
    entry("fig4", true, crate::figures::fig4),
    entry("fig5", true, crate::figures::fig5),
    entry("fig6", true, crate::figures::fig6),
    entry("table1", false, crate::timing::table1),
    entry("ablations", true, crate::ablations::ablations),
    entry("chaos-sweep", true, crate::chaos::chaos_sweep),
    entry("fig-dag", true, crate::figdag::fig_dag),
    entry("fig-learned", true, crate::figlearned::fig_learned),
];

/// Look an artifact up by name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The name of the file holding an artifact's rendered text when dumped.
pub fn log_name(experiment: &str) -> String {
    format!("results_{experiment}.log")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for e in &EXPERIMENTS {
            assert_eq!(experiment(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(experiment("fig3").is_none());
        assert_eq!(EXPERIMENTS.iter().filter(|e| !e.deterministic).count(), 1);
    }
}

//! The declarative sweep-spec format and its strict parser.
//!
//! A spec is a line-oriented text file describing a (workload × scale ×
//! machine-config) grid:
//!
//! ```text
//! # Anything after '#' is a comment; blank lines are ignored.
//! sweep width-sweep            # optional name (default "sweep")
//! scale tiny                   # tiny | small | default | large
//! fuel 400000                  # dynamic-instruction cap (full mode)
//! mode full                    # or: mode sampled <warmup> <interval> <period>
//! suite spec                   # spec | media | all (additive)
//! workload gzip.c              # individual workloads (additive)
//! config BASE four_wide baseline
//! config RENO four_wide reno
//! config R6W six_wide reno
//! config PRF96 four_wide baseline pregs=96
//! ```
//!
//! `config <label> <pipeline> <reno> [option...]` builds a
//! [`MachineConfig`]: pipeline is `four_wide` or `six_wide`; reno is
//! `baseline`, `me_only`, `cf_me` or `reno`; options are `pregs=<n>`,
//! `sched_loop=<n>`, `fused_extra_cycle`, `issue_i2t2`, `issue_i2t3`.
//!
//! The parser is **strict**: unknown directives, unknown workloads, unknown
//! config options, duplicate labels and out-of-range values are all errors
//! with a line number — a typo'd spec must fail loudly up front, not
//! silently sweep the wrong grid. (The spec file is the service's one
//! semi-trusted *text* surface; everything it writes and reads back on disk
//! is the binary surface `reno-fuzz`'s `store` surface covers.)

use reno_core::RenoConfig;
use reno_sim::MachineConfig;
use reno_workloads::{all_workloads, Scale};

/// A parse/validation error with the 1-based line it occurred on
/// (line 0 = a whole-file problem, e.g. no workloads).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line, 0 for file-level errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.msg)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// How each cell is simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Detailed simulation of the first `fuel` dynamic instructions.
    Full,
    /// Checkpoint-sampled simulation of the whole run (`reno-sample`),
    /// with the functional pass shared across the scale's configs.
    Sampled {
        /// Discarded detailed instructions before each measure window.
        warmup: u64,
        /// Measured instructions per window.
        interval: u64,
        /// One window per `period` instructions.
        period: u64,
    },
}

/// A parsed, validated sweep specification.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name (report header only; not part of any cache key).
    pub name: String,
    /// Workload scale for every cell.
    pub scale: Scale,
    /// Dynamic-instruction cap for [`Mode::Full`] cells.
    pub fuel: u64,
    /// Simulation mode for every cell.
    pub mode: Mode,
    /// Workload names, in spec order (validated against `reno-workloads`).
    pub workloads: Vec<String>,
    /// `(label, config)` pairs, in spec order; labels are unique.
    pub configs: Vec<(String, MachineConfig)>,
}

fn err(line: usize, msg: impl Into<String>) -> SpecError {
    SpecError {
        line,
        msg: msg.into(),
    }
}

fn parse_u64(line: usize, what: &str, tok: &str) -> Result<u64, SpecError> {
    tok.parse::<u64>()
        .map_err(|_| err(line, format!("{what}: expected a number, got `{tok}`")))
}

fn build_config(line: usize, toks: &[&str]) -> Result<MachineConfig, SpecError> {
    let [pipeline, reno, opts @ ..] = toks else {
        return Err(err(
            line,
            "config needs `<label> <pipeline> <reno> [option...]`",
        ));
    };
    let reno = match *reno {
        "baseline" => RenoConfig::baseline(),
        "me_only" => RenoConfig::me_only(),
        "cf_me" => RenoConfig::cf_me(),
        "reno" => RenoConfig::reno(),
        other => {
            return Err(err(
                line,
                format!("unknown reno config `{other}` (baseline|me_only|cf_me|reno)"),
            ))
        }
    };
    let mut cfg = match *pipeline {
        "four_wide" => MachineConfig::four_wide(reno),
        "six_wide" => MachineConfig::six_wide(reno),
        other => {
            return Err(err(
                line,
                format!("unknown pipeline `{other}` (four_wide|six_wide)"),
            ))
        }
    };
    for opt in opts {
        cfg = match opt.split_once('=') {
            Some(("pregs", v)) => {
                let n = parse_u64(line, "pregs", v)? as usize;
                if n < 64 {
                    return Err(err(line, format!("pregs={n} is below the architected set")));
                }
                cfg.with_pregs(n)
            }
            Some(("sched_loop", v)) => {
                let n = parse_u64(line, "sched_loop", v)?;
                if !(1..=4).contains(&n) {
                    return Err(err(line, format!("sched_loop={n} out of range 1..=4")));
                }
                cfg.with_sched_loop(n)
            }
            None if *opt == "fused_extra_cycle" => cfg.with_fused_extra_cycle(),
            None if *opt == "issue_i2t2" => cfg.with_issue_i2t2(),
            None if *opt == "issue_i2t3" => cfg.with_issue_i2t3(),
            _ => return Err(err(line, format!("unknown config option `{opt}`"))),
        };
    }
    Ok(cfg)
}

/// Parses and validates a sweep spec. See the module docs for the grammar.
pub fn parse_spec(text: &str) -> Result<SweepSpec, SpecError> {
    let known: Vec<&'static str> = all_workloads(Scale::Tiny).iter().map(|w| w.name).collect();

    let mut name = "sweep".to_string();
    let mut scale = Scale::Default;
    let mut fuel = 400_000u64;
    let mut mode = Mode::Full;
    let mut workloads: Vec<String> = Vec::new();
    let mut configs: Vec<(String, MachineConfig)> = Vec::new();

    let add_workload = |line: usize, wl: &str, workloads: &mut Vec<String>| {
        if !known.contains(&wl) {
            return Err(err(line, format!("unknown workload `{wl}`")));
        }
        if workloads.iter().any(|w| w == wl) {
            return Err(err(line, format!("duplicate workload `{wl}`")));
        }
        workloads.push(wl.to_string());
        Ok(())
    };

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let toks: Vec<&str> = content.split_whitespace().collect();
        match toks[0] {
            "sweep" => match toks[1..] {
                [n] => name = n.to_string(),
                _ => return Err(err(line, "sweep needs exactly one name")),
            },
            "scale" => {
                scale = match toks[1..] {
                    ["tiny"] => Scale::Tiny,
                    ["small"] => Scale::Small,
                    ["default"] => Scale::Default,
                    ["large"] => Scale::Large,
                    _ => return Err(err(line, "scale needs tiny|small|default|large")),
                }
            }
            "fuel" => match toks[1..] {
                [v] => {
                    fuel = parse_u64(line, "fuel", v)?;
                    if fuel == 0 {
                        return Err(err(line, "fuel must be positive"));
                    }
                }
                _ => return Err(err(line, "fuel needs exactly one number")),
            },
            "mode" => {
                mode = match toks[1..] {
                    ["full"] => Mode::Full,
                    ["sampled", w, iv, p] => {
                        let warmup = parse_u64(line, "warmup", w)?;
                        let interval = parse_u64(line, "interval", iv)?;
                        let period = parse_u64(line, "period", p)?;
                        if warmup == 0 || interval == 0 {
                            return Err(err(line, "warmup and interval must be positive"));
                        }
                        if period < warmup + interval {
                            return Err(err(
                                line,
                                format!("period {period} < warmup+interval {}", warmup + interval),
                            ));
                        }
                        Mode::Sampled {
                            warmup,
                            interval,
                            period,
                        }
                    }
                    _ => {
                        return Err(err(
                            line,
                            "mode needs `full` or `sampled <warmup> <interval> <period>`",
                        ))
                    }
                }
            }
            "suite" => {
                let names: Vec<&'static str> = match toks[1..] {
                    ["spec"] => reno_workloads::spec_suite(Scale::Tiny)
                        .iter()
                        .map(|w| w.name)
                        .collect(),
                    ["media"] => reno_workloads::media_suite(Scale::Tiny)
                        .iter()
                        .map(|w| w.name)
                        .collect(),
                    ["all"] => known.clone(),
                    _ => return Err(err(line, "suite needs spec|media|all")),
                };
                for wl in names {
                    add_workload(line, wl, &mut workloads)?;
                }
            }
            "workload" => match toks[1..] {
                [wl] => add_workload(line, wl, &mut workloads)?,
                _ => return Err(err(line, "workload needs exactly one name")),
            },
            "config" => {
                let [_, label, rest @ ..] = toks.as_slice() else {
                    return Err(err(line, "config needs a label"));
                };
                if configs.iter().any(|(l, _)| l == label) {
                    return Err(err(line, format!("duplicate config label `{label}`")));
                }
                let cfg = build_config(line, rest)?;
                configs.push((label.to_string(), cfg));
            }
            other => return Err(err(line, format!("unknown directive `{other}`"))),
        }
    }

    if workloads.is_empty() {
        return Err(err(0, "spec defines no workloads"));
    }
    if configs.is_empty() {
        return Err(err(0, "spec defines no configs"));
    }
    Ok(SweepSpec {
        name,
        scale,
        fuel,
        mode,
        workloads,
        configs,
    })
}

impl SweepSpec {
    /// Canonical single-line description of everything that affects cell
    /// *content* (not presentation): hashed into the sweep identity for the
    /// journal file name. Labels and the sweep name are presentation-only
    /// and excluded, so renaming a config does not orphan the journal.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "rev={}|scale={:?}|mode={:?}|",
            crate::SIM_REV,
            self.scale,
            self.mode
        );
        if let Mode::Full = self.mode {
            let _ = write!(s, "fuel={}|", self.fuel);
        }
        let _ = write!(s, "wl={:?}|", self.workloads);
        for (_, cfg) in &self.configs {
            let _ = write!(s, "cfg={cfg:?}|");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# demo
sweep demo
scale tiny
fuel 50000
mode full
workload gzip.c
workload mcf
config BASE four_wide baseline
config RENO four_wide reno pregs=96  # trailing comment
";

    #[test]
    fn parses_a_good_spec() {
        let s = parse_spec(GOOD).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.scale, Scale::Tiny);
        assert_eq!(s.fuel, 50_000);
        assert_eq!(s.mode, Mode::Full);
        assert_eq!(s.workloads, vec!["gzip.c", "mcf"]);
        assert_eq!(s.configs.len(), 2);
        assert_eq!(s.configs[1].1.reno.total_pregs, 96);
    }

    #[test]
    fn suites_expand() {
        let s = parse_spec("suite spec\nconfig A four_wide reno\n").unwrap();
        assert_eq!(s.workloads.len(), 10);
        let s = parse_spec("suite all\nconfig A four_wide reno\n").unwrap();
        assert_eq!(s.workloads.len(), 20);
    }

    #[test]
    fn strictness() {
        for (bad, needle) in [
            (
                "workload nope\nconfig A four_wide reno\n",
                "unknown workload",
            ),
            (
                "workload mcf\nworkload mcf\nconfig A four_wide reno\n",
                "duplicate workload",
            ),
            (
                "workload mcf\nconfig A four_wide reno\nconfig A six_wide reno\n",
                "duplicate config label",
            ),
            (
                "workload mcf\nconfig A five_wide reno\n",
                "unknown pipeline",
            ),
            (
                "workload mcf\nconfig A four_wide turbo\n",
                "unknown reno config",
            ),
            (
                "workload mcf\nconfig A four_wide reno warp=9\n",
                "unknown config option",
            ),
            (
                "workload mcf\nconfig A four_wide reno sched_loop=9\n",
                "out of range",
            ),
            ("frobnicate 3\n", "unknown directive"),
            (
                "mode sampled 10 10 5\nworkload mcf\nconfig A four_wide reno\n",
                "period",
            ),
            ("config A four_wide reno\n", "no workloads"),
            ("workload mcf\n", "no configs"),
        ] {
            let e = parse_spec(bad).unwrap_err();
            assert!(e.to_string().contains(needle), "{bad:?} -> {e}");
        }
    }

    #[test]
    fn canonical_ignores_labels_but_not_content() {
        let a = parse_spec(GOOD).unwrap();
        let mut b = parse_spec(GOOD).unwrap();
        b.name = "other".into();
        b.configs[0].0 = "RELABELED".into();
        assert_eq!(a.canonical(), b.canonical());
        let c = parse_spec(&GOOD.replace("fuel 50000", "fuel 60000")).unwrap();
        assert_ne!(a.canonical(), c.canonical());
    }
}

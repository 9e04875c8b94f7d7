//! The seeded `dse_sweep` grid.
//!
//! Both sweeps run the 20 Default kernels in sampled mode at the ladder's
//! dense shape. The first sweep lists three configs: the paper's four-wide
//! RENO machine, whose committed full-detail CPI makes the sweep's accuracy
//! measurable, and two configs drawn from the seed. The second lists the
//! same three plus two more drawn configs, so it reads 60 cached cells and
//! computes 40 new ones on the same store.
//!
//! The drawn configs vary the RENO optimizations and the physical register
//! file (Fig 11's sweep) on the four-wide machine. Widths are not drawn,
//! because a run's cost would then depend on its seed: in trial runs, a
//! grid with three six-wide configs ran about a fifth faster.

/// Detailed warmup, measured interval and period of every sweep cell: the
/// dense rung of `run_sampled_auto`.
pub const SHAPE: (u64, u64, u64) = (2048, 768, 12288);

/// The anchor config: label and `config` line arguments.
pub const ANCHOR: (&str, &str) = ("RENO", "four_wide reno");

const RENO_MODES: [&str; 4] = ["baseline", "me_only", "cf_me", "reno"];
/// Physical register file sizes of Fig 11's sweep; `None` keeps the
/// machine's 160.
const PREGS: [Option<u32>; 4] = [None, Some(96), Some(112), Some(128)];

/// One sweep config: its label and the arguments of its `config` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridConfig {
    /// Column label in the report.
    pub label: String,
    /// `<pipeline> <reno> [option]`.
    pub args: String,
}

/// The two sweeps of one `dse_sweep` run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Configs of the first (cold) sweep.
    pub first: Vec<GridConfig>,
    /// Configs of the second sweep: `first` plus two new ones.
    pub second: Vec<GridConfig>,
}

/// SplitMix64: a fixed, dependency-free generator, so a seed means the same
/// grid on every host and toolchain.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The grid for `seed`.
pub fn grid(seed: u64) -> Grid {
    let space: Vec<String> = RENO_MODES
        .iter()
        .flat_map(|r| {
            PREGS.iter().map(move |n| match n {
                Some(n) => format!("four_wide {r} pregs={n}"),
                None => format!("four_wide {r}"),
            })
        })
        .filter(|args| args != ANCHOR.1)
        .collect();
    let mut state = seed;
    let mut drawn: Vec<String> = Vec::new();
    while drawn.len() < 4 {
        let pick = &space[(splitmix64(&mut state) % space.len() as u64) as usize];
        if !drawn.contains(pick) {
            drawn.push(pick.clone());
        }
    }
    let mut configs = vec![GridConfig {
        label: ANCHOR.0.to_string(),
        args: ANCHOR.1.to_string(),
    }];
    configs.extend(drawn.into_iter().enumerate().map(|(i, args)| GridConfig {
        label: format!("G{}", i + 1),
        args,
    }));
    Grid {
        first: configs[..3].to_vec(),
        second: configs,
    }
}

/// The sweep spec text for `configs`.
pub fn spec_text(name: &str, configs: &[GridConfig]) -> String {
    let (warmup, interval, period) = SHAPE;
    let mut s = format!(
        "sweep {name}\nscale default\nmode sampled {warmup} {interval} {period}\nsuite all\n"
    );
    for c in configs {
        s.push_str(&format!("config {} {}\n", c.label, c.args));
    }
    s
}

//! The `reno-fuzz` binary's command line: one surface argument, a summary
//! line, and a loud refusal of anything else.

use std::process::{Command, Output};

fn reno_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reno-fuzz"))
        .args(args)
        .env("RENO_FUZZ_SEED", "1")
        .env("RENO_FUZZ_ITERS", "50")
        .output()
        .expect("the binary starts")
}

#[test]
fn a_missing_or_unknown_surface_fails_and_lists_every_surface() {
    for args in [&[][..], &["nosuch"], &["decode", "asm"]] {
        let out = reno_fuzz(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was fuzzed");
        let err = String::from_utf8_lossy(&out.stderr);
        for (name, _) in reno_fuzz::SURFACES {
            assert!(err.contains(name), "{args:?}: {name} missing from {err:?}");
        }
    }
}

#[test]
fn a_named_surface_runs_and_prints_its_summary() {
    let surface = "decode";
    let out = reno_fuzz(&[surface]);
    assert_eq!(out.status.code(), Some(0));
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(
        line.starts_with(&format!("fuzz_{surface}: seed=1 iters=50 accepted="))
            && line.ends_with(" violations=0\n"),
        "{line:?}"
    );
}

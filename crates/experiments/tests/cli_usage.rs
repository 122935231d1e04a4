//! The diagnostic binaries reject unknown scale names with usage and exit
//! code 2 before building a world, as `repro` and `audit` do. A silent
//! fallback would turn a typo (or a retired `diag` subcommand) into a
//! minutes-long paper-scale build.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_exit(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "{what} prints usage: {out:?}"
    );
    // Every world build prints its timing on stdout; nothing may be built.
    assert!(out.stdout.is_empty(), "{what} built something: {out:?}");
}

#[test]
fn diag_rejects_unknown_scales_and_retired_subcommands() {
    let diag = env!("CARGO_BIN_EXE_diag");
    for args in [
        &["whatif"][..],
        &["whatif", "20000", "7"],
        &["hijack", "5000", "7"],
        &["internet_scale", "7"],
        &["audit-delta"],
        &["serve"],
        &["huge"],
        &["tiny", "garbage"],
        &["tiny", "7", "0.1", "extra"],
    ] {
        assert_usage_exit(&run(diag, args), &format!("diag {args:?}"));
    }
}

#[test]
fn sweep_rejects_unknown_scale() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    for args in [&["--scale", "huge"][..], &["--scale"], &["--seeds", "x"]] {
        assert_usage_exit(&run(sweep, args), &format!("sweep {args:?}"));
    }
}

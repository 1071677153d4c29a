//! The `gre-figs` command line: which figure to run is its first argument,
//! and nothing it cannot act on is accepted in silence.

use gre_bench::figures::FIGURES;
use std::process::{Command, Output};

fn gre_figs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gre-figs"))
        .args(args)
        .output()
        .expect("gre-figs runs")
}

#[test]
fn missing_or_unknown_figure_lists_the_table_and_exits_2() {
    for args in [&[][..], &["fig2"][..], &["--quick"][..]] {
        let out = gre_figs(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        for figure in FIGURES {
            assert!(stderr.contains(figure.name), "{args:?}: no {}", figure.name);
        }
    }
}

#[test]
fn mistyped_flags_exit_2_without_running() {
    for args in [
        &["table1_configs", "--keys", "nonsense"][..],
        &["table1_configs", "--thraeds", "2"][..],
    ] {
        let out = gre_figs(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran the figure");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(args[1]) && stderr.contains("--threads"));
    }
}

#[test]
fn a_named_figure_runs() {
    let out = gre_figs(&["table1_configs", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.starts_with("# Table 1: learned index configurations\n"));
}

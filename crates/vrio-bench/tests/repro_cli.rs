//! Command-line contract of the `repro` binary: `--help` succeeds and
//! lists every flag, and flag combinations that would silently do nothing
//! fail with an exact message and exit status 2.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

const PROFILE_MISUSE: &str =
    "--profile requires --json DIR and cannot be combined with --sweep or --chaos\n";

#[test]
fn help_prints_usage_and_every_flag() {
    // --help wins over any other flag.
    for args in [&["--help"][..], &["--quick", "--tab3", "--help"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
        let text = String::from_utf8(out.stdout).expect("utf-8 usage");
        assert!(text.starts_with("usage: repro "), "{text}");
        let flags = "--quick --all --ring --out --trace --json --sweep --chaos --threads \
                     --oracle --telemetry --profile --help --fig1 --tab3 --fig16 --differential";
        for flag in flags.split_whitespace() {
            assert!(text.contains(flag), "--help omits {flag}:\n{text}");
        }
    }
}

#[test]
fn profile_without_a_sink_is_rejected() {
    let json = env!("CARGO_TARGET_TMPDIR");
    for args in [
        &["--quick", "--tab3", "--profile"][..],
        &["--quick", "--tab3", "--profile", "--trace", json],
        &["--quick", "--sweep", "smoke", "--profile", "--json", json],
        &[
            "--quick",
            "--chaos",
            "primary-kill",
            "--profile",
            "--json",
            json,
        ],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            PROFILE_MISUSE,
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn profile_with_json_writes_the_profile() {
    let dir = format!("{}/repro_cli_profile", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&["--quick", "--tab3", "--profile", "--json", &dir]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(std::path::Path::new(&format!("{dir}/PROF_tab3.json")).exists());
}

#[test]
fn unknown_flag_is_rejected_with_the_known_list() {
    let out = repro(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("unknown flag --bogus; known: --all --quick --fig1 "),
        "{err}"
    );
}
